package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"metaprobe/internal/corpus"
	"metaprobe/internal/obs/ops/opstest"
	"metaprobe/internal/queries"
	"metaprobe/internal/server"
	"metaprobe/internal/stats"
)

// drillDrainTimeout is the -drain-timeout the daemon is booted with, and
// so how long it may take to exit after SIGTERM.
const drillDrainTimeout = 5 * time.Second

// daemon is a metaprobed process built from this checkout.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port, read off the "metaprobed serving" line
	// exited is closed once the process is gone; waitErr is what Wait
	// returned.
	exited  chan struct{}
	waitErr error

	mu  sync.Mutex
	log bytes.Buffer // everything the daemon wrote to stderr
}

func (d *daemon) stderr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

var servingAddr = regexp.MustCompile(`msg="metaprobed serving" addr=(\S+)`)

// daemonBin is cmd/metaprobed built from this checkout, once for every
// test that runs it.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "metaprobed-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemonBin = filepath.Join(dir, "metaprobed")
	code := 1
	if out, err := exec.Command("go", "build", "-o", daemonBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// bootDaemon starts the daemon on a free port and returns once /readyz
// answers 200. The process is killed when the test ends, however it
// ends.
func bootDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(daemonBin, args...), exited: make(chan struct{})}
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addr := make(chan string, 1)
	go func() {
		// Reads to EOF, so the daemon never blocks on a full pipe; Wait
		// only after that, as os/exec asks.
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			d.mu.Lock()
			d.log.Write(sc.Bytes())
			d.log.WriteByte('\n')
			d.mu.Unlock()
			if m := servingAddr.FindSubmatch(sc.Bytes()); m != nil {
				select {
				case addr <- string(m[1]):
				default:
				}
			}
		}
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill() // a no-op error once it has exited
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			t.Error("metaprobed did not die on SIGKILL")
		}
		if t.Failed() {
			t.Logf("metaprobed stderr:\n%s", d.stderr())
		}
	})
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		t.Fatalf("metaprobed exited before serving: %v", d.waitErr)
	case <-time.After(2 * time.Minute):
		t.Fatal("metaprobed never logged its serving address")
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET /readyz never answered 200 (last error %v)", err)
		}
	}
}

// TestSizeFlagsOutOfRangeRefused holds the daemon to refusing, before it
// builds anything, a -scale or -train that would build another testbed
// than the one asked for (a scale <= 0 is the paper's full size, a NaN
// one 50 documents a database) or panic (a negative -train).
func TestSizeFlagsOutOfRangeRefused(t *testing.T) {
	for _, bad := range [][2]string{
		{"-scale", "0"}, {"-scale", "-1"}, {"-scale", "NaN"}, {"-scale", "+Inf"},
		{"-train", "0"}, {"-train", "-1"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, daemonBin, "-addr", "127.0.0.1:0", bad[0], bad[1]).CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		var exit *exec.ExitError
		switch {
		case timedOut:
			t.Errorf("%s %s: still running after 10s", bad[0], bad[1])
		case !errors.As(err, &exit) || exit.ExitCode() != 2:
			t.Errorf("%s %s: exit %v, want a usage error (status 2)", bad[0], bad[1], err)
		}
		if !strings.Contains(string(out), bad[0]+" must be") {
			t.Errorf("%s %s: the output does not name the flag:\n%s", bad[0], bad[1], out)
		}
		if strings.Contains(string(out), "building testbed") {
			t.Errorf("%s %s: began building a testbed:\n%s", bad[0], bad[1], out)
		}
	}
}

// get fetches path and returns the body of a 200.
func (d *daemon) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d %s (%v)", path, resp.StatusCode, body, err)
	}
	return body
}

// postWave sends the same POST /v1/select on n connections of its own.
// The request is encoded once and written to every connection back to
// back, so the wave reaches the daemon within microseconds of itself
// however few Ps this process runs on; issued from n goroutines, each
// paying for its own encoding and transport, the requests of a wave can
// land further apart than a whole in-memory selection takes, and then
// there is nothing in flight to coalesce with.
func (d *daemon) postWave(req server.SelectRequest, n int) ([]server.SelectResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequest(http.MethodPost, d.base+"/v1/select", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	var wire bytes.Buffer
	if err := hreq.Write(&wire); err != nil {
		return nil, err
	}
	conns := make([]net.Conn, n)
	for i := range conns {
		if conns[i], err = net.Dial("tcp", hreq.URL.Host); err != nil {
			return nil, err
		}
		defer conns[i].Close()
	}
	for _, c := range conns {
		if _, err := c.Write(wire.Bytes()); err != nil {
			return nil, err
		}
	}
	out := make([]server.SelectResponse, n)
	for i, c := range conns {
		resp, err := http.ReadResponse(bufio.NewReader(c), hreq)
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&out[i])
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("POST /v1/select %q = %d", req.Query, resp.StatusCode)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestDaemonDrill boots the real binary at CI scale and holds it to what
// an idle daemon owes a burst of batched traffic: everything answered at
// the full tier, identical concurrent requests coalesced, no shed
// counter moved, every tenant trained, one request's record readable at
// /debug/spans, its repeat decided from the version's memo, a peer that
// stalls inside its request line hung up on while all of that goes on,
// and a clean exit on SIGTERM inside the drain timeout.
func TestDaemonDrill(t *testing.T) {
	d := bootDaemon(t, "-addr", "127.0.0.1:0", "-scale", "0.006", "-train", "80",
		"-tenants", "default,ops", "-drain-timeout", drillDrainTimeout.String())

	// A peer that writes half a request and stops. The daemon owes it
	// readHeaderTimeout and no more; every scene below runs with the
	// connection held, and the drill collects the verdict before SIGTERM.
	stalled, err := net.Dial("tcp", strings.TrimPrefix(d.base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "GET /v1/select HTTP/1.1\r\n"); err != nil {
		t.Fatal(err)
	}
	stalled.SetReadDeadline(time.Now().Add(readHeaderTimeout + time.Second))
	hungUp := make(chan error, 1)
	go func() {
		// The daemon answers a header timeout with a close and no bytes.
		_, err := io.Copy(io.Discard, stalled)
		hungUp <- err
	}()

	// The burst: 30 waves, each four concurrent identical requests — the
	// coalescer's unit of mergeable work.
	gen, err := queries.NewGenerator(corpus.HealthWorld(), queries.Config{})
	if err != nil {
		t.Fatal(err)
	}
	workload, err := gen.Pool(stats.NewRNG(2004).Fork(2), 15, 15)
	if err != nil {
		t.Fatal(err)
	}
	coalesced := 0
	for _, q := range workload {
		wave, err := d.postWave(server.SelectRequest{Query: q.String(), K: 3, Threshold: 0.9}, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, resp := range wave {
			if resp.Tier != "full" || resp.ShedReason != "" {
				t.Errorf("%q served at tier %q (shed reason %q) by an idle daemon", q, resp.Tier, resp.ShedReason)
			}
			if resp.Coalesced {
				coalesced++
			}
		}
	}
	t.Logf("%d of %d responses rode a shared run", coalesced, 4*len(workload))
	if coalesced == 0 {
		t.Errorf("none of %d responses rode a shared run", 4*len(workload))
	}

	// /metrics is the text format it declares, now that every series has
	// been written to, and agrees: the coalescer merged, and nothing was
	// shed.
	metrics := string(d.get(t, "/metrics"))
	opstest.CheckExposition(t, metrics)
	merged := false
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, `mp_batch_coalesced_total{tenant="default"} `); ok {
			merged = v != "0"
		}
		if strings.HasPrefix(line, "mp_shed_total{") && !strings.HasSuffix(line, " 0") {
			t.Errorf("shed at idle load: %s", line)
		}
	}
	if !merged {
		t.Error(`mp_batch_coalesced_total{tenant="default"} is absent or 0 after the burst`)
	}

	var models server.ModelsInfo
	if err := json.Unmarshal(d.get(t, "/debug/model"), &models); err != nil {
		t.Fatal(err)
	}
	if len(models.Tenants) != 2 || models.Skew.Untrained != 0 {
		t.Errorf("/debug/model = %+v, want 2 tenants, none untrained", models)
	}
	if def := models.Tenants["default"]; !def.MemoOn || def.MemoNodes == 0 {
		t.Errorf("/debug/model: the default tenant's frozen version remembers nothing of the burst: memoOn %v, memoNodes %d", def.MemoOn, def.MemoNodes)
	}

	// One request, one record: the response's traceId resolves at
	// /debug/spans to a root "selection" span carrying what the model
	// believed, what it chose and the probe trajectory. t = 1 on a query
	// with several plausible databases forces at least one probe.
	var one server.SelectResponse
	if err := json.Unmarshal(d.get(t, "/v1/select?q=cancer+treatment&k=2&t=1"), &one); err != nil {
		t.Fatal(err)
	}
	base, err := url.Parse(d.base)
	if err != nil {
		t.Fatal(err)
	}
	sel, roots := opstest.ReadSelection(t, httputil.NewSingleHostReverseProxy(base), one.TraceID)
	if len(roots) != 1 || roots[0].Name != "selection" {
		t.Fatalf("trace %s has %d roots, want the selection span alone", one.TraceID, len(roots))
	}
	for _, key := range []string{"id", "estimates", "initial_certainty", "selected", "certainty"} {
		if _, ok := sel.Attrs[key]; !ok {
			t.Errorf("selection span lacks attribute %q: %v", key, sel.Attrs)
		}
	}
	if len(sel.Databases) != 20 || !reflect.DeepEqual(sel.Selected, one.Databases) || len(sel.Selected) != 2 {
		t.Errorf("record holds %d estimates and selected %v; the response selected %v", len(sel.Databases), sel.Selected, one.Databases)
	}
	if n := len(sel.Steps); n == 0 {
		t.Errorf("t = 1 left no step event: %+v", sel.Events)
	} else if got, want := sel.Steps[n-1].CertaintyAfter, opstest.Float(t, sel.Attrs, "certainty"); got != want {
		t.Errorf("trajectory ends at %v, certainty attribute %v", got, want)
	}

	// The same request again is the same answer — the probes are sent
	// again — decided from what the serving version remembers of the
	// first: its record counts memo hits, and so does /metrics.
	var two server.SelectResponse
	if err := json.Unmarshal(d.get(t, "/v1/select?q=cancer+treatment&k=2&t=1"), &two); err != nil {
		t.Fatal(err)
	}
	again, _ := opstest.ReadSelection(t, httputil.NewSingleHostReverseProxy(base), two.TraceID)
	if again.Attrs["memo_hits"] == "" || again.Attrs["memo_hits"] == "0" || again.Attrs["memo_misses"] != "0" {
		t.Errorf("the repeated request's record: memo_hits %q, memo_misses %q; want hits and no miss", again.Attrs["memo_hits"], again.Attrs["memo_misses"])
	}
	if again.Attrs["selected"] != sel.Attrs["selected"] || again.Attrs["certainty"] != sel.Attrs["certainty"] || two.Probes != one.Probes {
		t.Errorf("the repeated request selected %s at %s after %d probes, its first sight %s at %s after %d",
			again.Attrs["selected"], again.Attrs["certainty"], two.Probes, sel.Attrs["selected"], sel.Attrs["certainty"], one.Probes)
	}
	remembered := false
	for _, line := range strings.Split(string(d.get(t, "/metrics")), "\n") {
		if v, ok := strings.CutPrefix(line, "mp_decision_memo_hits_total "); ok {
			remembered = v != "0"
		}
	}
	if !remembered {
		t.Error("mp_decision_memo_hits_total is absent or 0 after a repeated request")
	}

	// io.Copy returns at the daemon's close, or with the deadline's error
	// if the daemon is still listening to the stalled peer by then.
	if err := <-hungUp; errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("half a request line still held its connection %v later: %v", readHeaderTimeout+time.Second, err)
	}

	// http.Server.Shutdown waits five seconds on a connection that never
	// sent a request before it calls it idle. Hang up first, as a client
	// that is done does.
	http.DefaultClient.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
		if d.waitErr != nil {
			t.Errorf("metaprobed after SIGTERM: %v", d.waitErr)
		}
	case <-time.After(drillDrainTimeout):
		t.Errorf("metaprobed still running %v after SIGTERM", drillDrainTimeout)
	}
}
