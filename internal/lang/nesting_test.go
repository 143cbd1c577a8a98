package lang

import (
	"strings"
	"testing"
)

// parenSrc returns `return` of a literal wrapped in n parentheses: the
// block, the outer expression and one level per parenthesis make n+2
// nesting levels.
func parenSrc(n int) string {
	return "module m;\nproc main() { return " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; }\n"
}

// TestParseNestingLimit: source nested exactly maxNesting levels compiles;
// one level more is a parse error. Each deep shape the parser recurses
// through — parentheses, prefix operators, nested blocks and else-if
// chains — fails cleanly far past the limit instead of growing the stack.
func TestParseNestingLimit(t *testing.T) {
	if _, err := Compile("m", parenSrc(maxNesting-2)); err != nil {
		t.Fatalf("nesting at the limit rejected: %v", err)
	}
	if _, err := Compile("m", parenSrc(maxNesting-1)); err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
		t.Fatalf("nesting one past the limit: err = %v, want a nesting error", err)
	}

	const deep = 20 * maxNesting
	for name, src := range map[string]string{
		"parens": parenSrc(deep),
		"unary":  "module m;\nproc main() { return " + strings.Repeat("-", deep) + "1; }\n",
		"blocks": "module m;\nproc main() { " + strings.Repeat("while (0) { ", deep) + strings.Repeat("} ", deep) + "return 0; }\n",
		"elseif": "module m;\nproc main(x) { if (x) { return 1; }" + strings.Repeat(" else if (x) { return 1; }", deep) + " return 0; }\n",
		"args":   "module m;\nproc f(x) { return x; }\nproc main() { return " + strings.Repeat("f(", deep) + "1" + strings.Repeat(")", deep) + "; }\n",
	} {
		if _, err := Compile("m", src); err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
			t.Errorf("%s nested %d deep: err = %v, want a nesting error", name, deep, err)
		}
	}
}
