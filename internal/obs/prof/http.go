package prof

import (
	"fmt"
	"net/http"
	"runtime/pprof"
	"strconv"

	"metaprobe/internal/obs"
)

// Handler serves the captor's ring store — mount it at
// /debug/profiles:
//
//	GET /debug/profiles             JSON list of retained captures (no blobs)
//	GET /debug/profiles?id=N        raw pprof blob of capture N
//	GET /debug/profiles?latest=heap raw pprof blob of the newest heap capture
//	GET /debug/profiles?latest=cpu  raw pprof blob of the newest CPU capture
//
// Blobs are standard gzip-compressed pprof protobufs: save one and
// inspect it with `go tool pprof <file>`, or diff two heap captures
// with `go tool pprof -diff_base old.pb.gz new.pb.gz`.
func Handler(c *Captor) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		if s := q.Get("id"); s != "" {
			id, err := strconv.ParseInt(s, 10, 64)
			if err != nil || id <= 0 {
				http.Error(w, "id must be a positive integer", http.StatusBadRequest)
				return
			}
			serveBlob(w, c.Get(id))
			return
		}
		if kind := q.Get("latest"); kind != "" {
			if kind != KindCPU && kind != KindHeap {
				http.Error(w, "latest must be cpu or heap", http.StatusBadRequest)
				return
			}
			serveBlob(w, c.Latest(kind))
			return
		}
		list := c.List()
		if list == nil {
			list = []*Capture{}
		}
		obs.WriteJSON(w, list)
	})
}

// serveBlob writes one capture's raw pprof bytes, or 404.
func serveBlob(w http.ResponseWriter, cp *Capture) {
	if cp == nil {
		http.Error(w, "no such capture", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf(`attachment; filename="%s-%d.pb.gz"`, cp.Kind, cp.ID))
	w.Write(cp.Blob)
}

// GoroutineDumpHandler serves a plain-text dump of all goroutine
// stacks — mount it at /debug/goroutines. ?full=1 switches from the
// aggregated view (identical stacks collapsed with counts) to the
// unaggregated per-goroutine view with full frames, which is what you
// want when hunting a leak's spawn site.
func GoroutineDumpHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		p := pprof.Lookup("goroutine")
		if p == nil {
			http.Error(w, "goroutine profile unavailable", http.StatusInternalServerError)
			return
		}
		debug := 1
		if req.URL.Query().Get("full") == "1" {
			debug = 2
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		p.WriteTo(w, debug)
	})
}
