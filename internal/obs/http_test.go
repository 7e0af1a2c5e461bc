package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", nil).Inc()
	srv := httptest.NewServer(MetricsHandler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "x_total 1") {
		t.Errorf("metrics body = %q", string(body))
	}
}

// TestJSONHandler covers the one /debug/* encoder: content type,
// a fresh snapshot per request, and a decodable document.
func TestJSONHandler(t *testing.T) {
	type doc struct {
		Samples int64 `json:"samples"`
	}
	var samples int64
	srv := httptest.NewServer(JSONHandler(func() any { return doc{Samples: samples} }))
	defer srv.Close()

	for want := int64(0); want < 2; want++ {
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("Content-Type = %q", ct)
		}
		var snap doc
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Samples != want {
			t.Errorf("snapshot = %+v, want %d samples", snap, want)
		}
		samples++
	}
}

func TestHealthzHandler(t *testing.T) {
	srv := httptest.NewServer(HealthzHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
}

func TestReadyzCheckHandler(t *testing.T) {
	var cause error = errors.New("not trained")
	srv := httptest.NewServer(ReadyzCheckHandler(func() error { return cause }))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 || !strings.Contains(string(body), "not trained") {
		t.Errorf("not-ready = %d %q, want 503 naming the cause", resp.StatusCode, body)
	}

	cause = nil
	resp, err = srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ready\n" {
		t.Errorf("ready = %d %q", resp.StatusCode, body)
	}
}

func TestReadyzCheckHandlerNilAlwaysReady(t *testing.T) {
	srv := httptest.NewServer(ReadyzCheckHandler(nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("nil check status = %d, want 200", resp.StatusCode)
	}
}
