package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"predmatch/internal/client"
	"predmatch/internal/obs"
	"predmatch/internal/schema"
	"predmatch/internal/server"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

// startAdmin serves an Admin on a loopback port and returns its base
// URL plus a stopper that shuts it down and checks Serve unwinds.
func startAdmin(t *testing.T, a *server.Admin) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- a.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := a.Shutdown(ctx); err != nil {
			t.Errorf("admin Shutdown: %v", err)
		}
		select {
		case err := <-serveErr:
			if !errors.Is(err, http.ErrServerClosed) {
				t.Errorf("admin Serve returned %v, want http.ErrServerClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("admin Serve did not return after Shutdown")
		}
	}
	return "http://" + ln.Addr().String(), stop
}

func adminGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminEndpoints drives a metrics-enabled daemon through the wire
// protocol and asserts the admin surface reflects it: /metrics carries
// nonzero match-latency and IBS counters, /varz parses as JSON, and
// /healthz flips from 200 to 503 once shutdown begins.
func TestAdminEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	s, addr, stopSrv := startServer(t, server.Config{Registry: reg})
	base, stopAdmin := startAdmin(t, server.NewAdmin("unused", reg, s))
	defer stopAdmin()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rel := schema.MustRelation("emp",
		schema.Attribute{Name: "age", Type: value.KindInt},
		schema.Attribute{Name: "salary", Type: value.KindInt})
	if err := c.DeclareRelation(rel); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineRule("rule band on insert to emp when salary between 100 and 200 do log 'b'"); err != nil {
		t.Fatal(err)
	}
	// A relation's first 16 predicates sit in its shard's delta, which
	// is scanned, not stabbed; the 17th write merges them all into the
	// base trees, so the matches below stab an IBS-tree.
	for i := 0; i < 16; i++ {
		if _, err := c.DefineRule(fmt.Sprintf("rule never%d on insert to emp when age > %d do log 'n'", i, 1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, _, err := c.Insert("emp", tuple.New(value.Int(30), value.Int(int64(100+i*10)))); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Match("emp", tuple.New(value.Int(30), value.Int(150))); err != nil {
			t.Fatal(err)
		}
	}

	if code, body := adminGet(t, base+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}
	code, metrics := adminGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`predmatch_match_latency_seconds_count{rel="emp"}`,
		"predmatch_ibs_stabs_total",
		"predmatch_ibs_nodes_visited_total",
		`predmatch_rule_firings_total{rule="band"} 10`,
		`predmatch_request_latency_seconds_count{op="match"} 10`,
		"predmatch_notify_dropped_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The counters must be live, not merely present.
	if strings.Contains(metrics, "predmatch_ibs_stabs_total 0\n") {
		t.Error("predmatch_ibs_stabs_total still zero after matches")
	}

	code, varz := adminGet(t, base+"/varz")
	if code != http.StatusOK {
		t.Fatalf("/varz = %d", code)
	}
	var doc struct {
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(varz), &doc); err != nil {
		t.Fatalf("/varz is not JSON: %v", err)
	}
	if len(doc.Metrics) == 0 {
		t.Error("/varz reports no metric families")
	}

	if code, body := adminGet(t, base+"/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d %q", code, body)
	}

	c.Close()
	stopSrv()
	if code, body := adminGet(t, base+"/healthz"); code != http.StatusServiceUnavailable || body != "stopping\n" {
		t.Errorf("/healthz after shutdown = %d %q, want 503 stopping", code, body)
	}
}

// TestAdminShutdownNoLeak checks the admin listener's goroutines wind
// down with the daemon's: after both Shutdowns return, no http.Server
// machinery for the admin port may remain (same goleak pattern as
// checkGoroutinesGone).
func TestAdminShutdownNoLeak(t *testing.T) {
	reg := obs.NewRegistry()
	s, _, stopSrv := startServer(t, server.Config{Registry: reg})
	base, stopAdmin := startAdmin(t, server.NewAdmin("unused", reg, s))
	if code, _ := adminGet(t, base+"/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	stopSrv()
	stopAdmin()
	// http.Server.Shutdown waits for handlers but its listener/conn
	// goroutines unwind asynchronously; poll like the conn check does.
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "server.(*Admin).Serve") &&
			!strings.Contains(stacks, "net/http.(*Server).Serve") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("admin goroutines still running after Shutdown:\n%s", stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
