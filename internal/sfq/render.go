package sfq

// Tracer receives a rendered frame of the mesh after every clock when
// installed on the Mesh; used by the watch example and golden tests.
type Tracer func(cycle int, frame string)

// SetTracer installs (or clears, with nil) a per-cycle tracer.
func (m *Mesh) SetTracer(t Tracer) { m.b.tracer = t }

// Render draws the mesh state as one character per module:
//
//	H  hot syndrome module
//	P  pair signal in flight
//	G  pair-grant in flight
//	r  pair-request in flight
//	*  grow wavefront
//	#  error output latched (the correction chain)
//	=  boundary module
//	·  idle interior module
//
// Signals take precedence over the chain marking, which takes
// precedence over idle. After a decode the mesh shows its final state:
// the correction chain and any hot module left unresolved.
func (m *Mesh) Render() string { return m.b.render(0) }
