package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/lattice"
)

// httpRequest is the JSON body of POST /decode. Hot lists the indices
// of hot syndrome checks (the sparse form of the framed protocol's bit
// array — JSON clients are debugging tools, not the hot path).
type httpRequest struct {
	ID    uint64 `json:"id"`
	D     int    `json:"d"`
	EType string `json:"etype"` // "z" (default) or "x"
	Hot   []int  `json:"hot"`
}

// httpResponse is the JSON body of a /decode reply.
type httpResponse struct {
	ID        uint64  `json:"id"`
	Status    string  `json:"status"`
	Escalated bool    `json:"escalated,omitempty"`
	Cycles    uint32  `json:"cycles,omitempty"`
	Qubits    []int32 `json:"qubits"`
	Error     string  `json:"error,omitempty"`
}

// Handler returns the server's HTTP surface:
//
//	POST /decode    one synchronous decode (JSON in, JSON out)
//	GET  /healthz   controller state: shedding flag, backlog ratio
//	GET  /debug/traces  the flight recorder: sampled + outlier traces,
//	                shed/drop decisions, stage histograms, exemplars
//	                (?format=text for a terminal table)
//	everything else the registry's telemetry handler — /metrics,
//	                /metrics.json, /manifest.json, and /debug/pprof/*
//	                when withPprof is true
func (s *Server) Handler(withPprof bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/decode", s.handleDecode)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/traces", s.handleTraces)
	mux.Handle("/", s.reg.Handler(withPprof))
	return mux
}

func (s *Server) handleDecode(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// The framed path's payload bound holds for the JSON body too, so a
	// client cannot stream an unbounded document into the decoder.
	r.Body = http.MaxBytesReader(w, r.Body, MaxFramePayload)
	var hr httpRequest
	if err := json.NewDecoder(r.Body).Decode(&hr); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad request body: %v", err), code)
		return
	}
	var e lattice.ErrorType
	switch hr.EType {
	case "", "z":
		e = lattice.ZErrors
	case "x":
		e = lattice.XErrors
	default:
		http.Error(w, fmt.Sprintf("etype %q is not \"z\" or \"x\"", hr.EType), http.StatusBadRequest)
		return
	}
	s.mu.RLock()
	_, supported := s.queues[queueKey{hr.D, e}]
	s.mu.RUnlock()
	if !supported {
		http.Error(w, fmt.Sprintf("unsupported distance %d (serving %v)", hr.D, s.cfg.Distances),
			http.StatusBadRequest)
		return
	}
	syn := make([]bool, s.pool.Graph(hr.D, e).NumChecks())
	for _, i := range hr.Hot {
		if i < 0 || i >= len(syn) {
			http.Error(w, fmt.Sprintf("hot check %d out of range [0, %d)", i, len(syn)),
				http.StatusBadRequest)
			return
		}
		syn[i] = true
	}

	resp := s.Decode(hr.D, e, hr.ID, syn)
	out := httpResponse{
		ID:        resp.ID,
		Status:    resp.Status.String(),
		Escalated: resp.Escalated,
		Cycles:    resp.Cycles,
		Qubits:    resp.Qubits,
		Error:     resp.Msg,
	}
	if out.Qubits == nil {
		out.Qubits = []int32{}
	}
	code := http.StatusOK
	switch resp.Status {
	case StatusShed:
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case StatusError:
		code = http.StatusBadRequest
		if resp.Msg == "server draining" {
			code = http.StatusServiceUnavailable
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(out)
	// out.Qubits aliased resp.Qubits until the encode above; only now is
	// the pooled response free to recycle.
	s.putResp(resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"shedding": s.ctl.Shedding(),
		"ratio":    s.ctl.Ratio(),
		"conns":    s.connGauge.Load(),
	})
}
