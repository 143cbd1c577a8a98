package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"time"

	fpc "repro"
	"repro/internal/server"
)

// fpcd is one in-process daemon on a 127.0.0.1 listener, built the way
// cmd/fpcd builds it by default: ConfigFastCalls, verify-at-admission on,
// the demo module as the boot program, and every other server.Config
// field at its default — except CacheImages, which the workload sets.
type fpcd struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

func startFpcd(cacheImages int, wrap func(http.Handler) http.Handler) (*fpcd, error) {
	prog, err := fpc.Build(demoSources, "serve", "main", fpc.DefaultLinkOptions(serveConfig))
	if err != nil {
		return nil, fmt.Errorf("demo module: %w", err)
	}
	img, err := fpc.LoadImageVerified(prog, serveConfig)
	if err != nil {
		return nil, fmt.Errorf("demo module: %w", err)
	}
	srv := server.New(fpc.NewPoolFromImage(img), server.Config{Verify: true, CacheImages: cacheImages})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(h)
	}
	f := &fpcd{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { f.served <- f.hs.Serve(ln) }()
	return f, nil
}

// stop drains the daemon, closes its listener and connections, and waits
// for the serving goroutine to return.
func (f *fpcd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.srv.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	err := f.hs.Shutdown(ctx)
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	hc    *http.Client
	tr    *http.Transport
	url   string
	kinds []*kind
	gen   *gen
	// local is the connection's local address, which the traced handler
	// wrapper sees as the request's remote address.
	local string
	trace *httptrace.ClientTrace
}

func newClient(url string, kinds []*kind, g *gen) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	c := &client{hc: &http.Client{Transport: tr}, tr: tr, url: url, kinds: kinds, gen: g}
	c.trace = &httptrace.ClientTrace{GotConn: func(ci httptrace.GotConnInfo) {
		c.local = ci.Conn.LocalAddr().String()
	}}
	return c
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request of kind k and reads the whole response.
func (c *client) do(k *kind, traced bool) (status int, body []byte, err error) {
	method := http.MethodPost
	if k.op == opScrape {
		method = http.MethodGet
	}
	ctx := context.Background()
	if traced {
		ctx = httptrace.WithClientTrace(ctx, c.trace)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url+k.path, bytes.NewReader(k.body))
	if err != nil {
		return 0, nil, err
	}
	if k.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// presubmit sends every kind that calls a cached image by hash through
// /run once and checks the responses, so every later /call/{hash} is a hit.
func (c *client) presubmit() error {
	for _, k := range c.kinds {
		if k.op != opCallHash {
			continue
		}
		run := &kind{label: k.label, op: opRun, sources: k.sources, module: k.module, entry: k.entry,
			proc: k.entry, args: k.args, expect: k.expect, ref: k.ref, hash: k.hash}
		run.render()
		status, body, err := c.do(run, false)
		if err != nil {
			return fmt.Errorf("submit %s: %w", k.label, err)
		}
		if msg := run.check(status, body); msg != "" {
			return fmt.Errorf("submit %s", msg)
		}
	}
	return nil
}
