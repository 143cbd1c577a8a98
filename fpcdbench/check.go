package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	fpc "repro"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/server"
)

// serveBudget is fpcd's default per-request step budget; the reference
// runs use it too, so a program that would be cut is cut the same way.
const serveBudget = 5_000_000

// prepare builds every kind's program, runs it once in process (the
// reference run) and fixes the expected response. The expected results
// come from outside the simulator under test: workload.Program.Want where
// the corpus states one, and otherwise the I1 interpreter (internal/interp)
// over the parsed sources. The reference run's steps, cycles and charged
// references are what every response for the kind must report; its
// results must match the independent expectation too, or set-up fails.
func prepare(ks []*kind) error {
	for _, k := range ks {
		if k.op != opScrape {
			if err := k.reference(); err != nil {
				return fmt.Errorf("%s: %w", k.label, err)
			}
		}
		k.render()
	}
	return nil
}

func (k *kind) reference() error {
	prog, err := fpc.Build(k.sources, k.module, k.entry, fpc.DefaultLinkOptions(serveConfig))
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	img, err := fpc.LoadImageVerified(prog, serveConfig)
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	desc, err := prog.FindProc(k.module, k.proc)
	if err != nil {
		return err
	}
	m, err := img.NewMachine()
	if err != nil {
		return err
	}
	m.SetRunBudget(serveBudget)
	got, err := m.Call(desc, k.args...)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if k.want != nil {
		k.expect = []uint16{uint16(*k.want)}
	} else if k.expect, err = interpret(k); err != nil {
		return fmt.Errorf("interpreter: %w", err)
	}
	if !slices.Equal(got, k.expect) {
		return fmt.Errorf("reference run returned %v, the independent reference %v", got, k.expect)
	}
	k.ref, k.img, k.desc, k.hash = m.Metrics(), img, desc, prog.ContentHash()
	return nil
}

// interpret runs the kind under the I1 reference implementation.
func interpret(k *kind) ([]uint16, error) {
	prog, err := lang.ParseAll(k.sources)
	if err != nil {
		return nil, err
	}
	ip := interp.New(prog)
	defer ip.Close()
	res, err := ip.Run(k.module, k.proc, k.args...)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// check judges one response against its kind. It returns "" when the
// response is correct and a one-line reason otherwise.
func (k *kind) check(status int, body []byte) string {
	if status != 200 {
		return fmt.Sprintf("%s: status %d: %s", k.label, status, strings.TrimSpace(string(body)))
	}
	if k.op == opScrape {
		if !strings.Contains(string(body), "fpc_server_completed_total ") {
			return "scrape: exposition lacks fpc_server_completed_total"
		}
		return ""
	}
	var r server.RunResponse // a superset of CallResponse's fields
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Sprintf("%s: bad response body: %v", k.label, err)
	}
	return k.checkResult(&r)
}

func (k *kind) checkResult(r *server.RunResponse) string {
	switch {
	case r.Error != "":
		return fmt.Sprintf("%s: run error: %s", k.label, r.Error)
	case !slices.Equal(r.Results, k.expect):
		return fmt.Sprintf("%s: results %v, want %v", k.label, r.Results, k.expect)
	case r.Steps != k.ref.Instructions || r.Cycles != k.ref.Cycles || r.Refs != k.ref.ChargedRefs:
		return fmt.Sprintf("%s: steps/cycles/refs %d/%d/%d, reference run %d/%d/%d", k.label,
			r.Steps, r.Cycles, r.Refs, k.ref.Instructions, k.ref.Cycles, k.ref.ChargedRefs)
	case k.op != opCall && r.Hash != k.hash:
		return fmt.Sprintf("%s: hash %s, want %s", k.label, r.Hash, k.hash)
	}
	return ""
}
