package serve

import (
	"sync"
	"time"

	"repro/internal/backlog"
	"repro/internal/obs"
)

// The controller's model reads the wall-clock serve_decode_ns
// histogram: one unit is one nanosecond (unitNs), and the pessimistic
// service-time floor fed to backlog.ModelForHistogram is 1 ns (floorNs).
const (
	floorNs = 1
	unitNs  = 1
)

// Controller is the backlog model acting as an SLO admission
// controller. §III's argument is that a decoder slower than the
// syndrome-generation rate diverges — backlog, and therefore latency,
// grows without bound. The same recurrence governs this service: treat
// the measured request arrival interval as the syndrome cycle tGen and
// the measured per-request service-time distribution as the decode
// distribution, and backlog.ModelForHistogram yields the processing
// ratio f = DecodeNs / (arrival interval × capacity). f > 1 is
// exactly the divergence condition of Fig. 6, so the controller sheds
// load while the model predicts divergence and admits it again once
// the model says the queue drains.
//
// Shedding is hysteretic: it engages when the ratio rises above Enter
// and releases only when it falls below Exit, so the controller does
// not flap at the stability point where the ratio hovers around 1.
// The backpressure property suite pins both bounds.
//
// A Controller is safe for concurrent use; Update is typically called
// from one evaluation loop while request paths read Shedding.
type Controller struct {
	// Capacity is how many decodes the service advances concurrently
	// (decode workers × batch lanes): the model's single-decoder
	// recurrence sees an effective syndrome cycle of arrival × Capacity.
	Capacity float64
	// Enter and Exit are the hysteresis bounds on the processing ratio:
	// shedding starts when ratio > Enter and stops when ratio < Exit.
	// Enter must be ≥ Exit.
	Enter, Exit float64

	mu       sync.Mutex
	shedding bool
	ratio    float64
}

// NewController returns a controller at the default hysteresis band
// (Enter 1.0 — the paper's divergence threshold — Exit 0.85) for a
// service of the given concurrent decode capacity.
func NewController(capacity float64) *Controller {
	return &Controller{
		Capacity: capacity,
		Enter:    1.0,
		Exit:     0.85,
	}
}

// Update re-evaluates the controller: arrivalNs is the measured mean
// interval between admitted requests (0 or negative means "no traffic",
// which reads as an infinitely slow arrival and always releases
// shedding), snap is the current service-time histogram. It returns the
// new shedding state.
func (c *Controller) Update(arrivalNs float64, snap obs.Snapshot) bool {
	r := c.PredictRatio(arrivalNs, snap)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ratio = r
	if c.shedding {
		if r < c.Exit {
			c.shedding = false
		}
	} else if r > c.Enter {
		c.shedding = true
	}
	return c.shedding
}

// PredictRatio returns the backlog model's processing ratio at the
// given arrival interval and latency distribution, without touching the
// controller's state: f > 1 is the model's divergence prediction. This
// is the exact predicate Update applies its hysteresis to.
func (c *Controller) PredictRatio(arrivalNs float64, snap obs.Snapshot) float64 {
	if arrivalNs <= 0 {
		return 0
	}
	m := backlog.ModelForHistogram(arrivalNs*c.Capacity, floorNs, unitNs, snap)
	return m.Ratio()
}

// ShedClass is the cost-weighted admission predicate: given a request
// class's normalized service-cost weight w ∈ (0, 1] (its measured mean
// decode time divided by the most expensive class's), the smallest
// weight minW among the served classes, the controller's current
// backlog ratio and its Enter bound, it reports whether this class
// sheds while the controller is in its shedding state.
//
// The cut rises linearly with overload severity: at ratio == Enter only
// the cheapest class sheds (severity 0); by ratio == 2·Enter every
// class sheds (severity 1). Because cheap traffic is shed first, the
// expensive decodes the service exists for — the high-distance requests
// whose corrections are hardest to recompute elsewhere — keep flowing
// until the model says nothing fits (ROADMAP's per-distance weighted
// admission). The predicate is monotone in w by construction: if a
// class sheds, every class of equal or lower weight sheds too, which
// the shed-ordering property test pins.
//
// ShedClass is a pure function of its arguments; the server evaluates
// it only while Controller.Shedding() holds.
func ShedClass(w, minW, ratio, enter float64) bool {
	if w <= minW {
		return true // the cheapest class always sheds first
	}
	if enter <= 0 {
		return true
	}
	severity := (ratio - enter) / enter
	return w <= severity
}

// Shedding reports whether the controller is currently rejecting load.
func (c *Controller) Shedding() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shedding
}

// Ratio returns the processing ratio of the last Update.
func (c *Controller) Ratio() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ratio
}

// arrivalMeter estimates the mean inter-arrival interval of admitted
// requests as an EWMA (α = 1/16), with a staleness escape: when no
// request has arrived for longer than the EWMA says one should, the
// elapsed gap overrides the estimate, so a traffic stop releases
// shedding instead of freezing the last overloaded estimate forever.
type arrivalMeter struct {
	mu   sync.Mutex
	last time.Time
	ewma float64 // ns between arrivals
}

// tick records one arrival at now.
func (m *arrivalMeter) tick(now time.Time) {
	m.mu.Lock()
	if !m.last.IsZero() {
		dt := float64(now.Sub(m.last))
		if dt >= 0 {
			if m.ewma == 0 {
				m.ewma = dt
			} else {
				m.ewma += (dt - m.ewma) / 16
			}
		}
	}
	m.last = now
	m.mu.Unlock()
}

// intervalNs returns the current arrival-interval estimate as seen at
// now, or 0 when no interval has been observed yet.
func (m *arrivalMeter) intervalNs(now time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.last.IsZero() {
		return 0
	}
	if gap := float64(now.Sub(m.last)); gap > m.ewma {
		return gap
	}
	return m.ewma
}
