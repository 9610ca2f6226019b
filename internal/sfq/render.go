package sfq

// Tracer receives a rendered frame of lane 0 after every clock when
// installed on a mesh; used by the watch example and golden tests.
type Tracer func(cycle int, frame string)

// SetTracer installs (or clears, with nil) a per-cycle tracer of lane 0.
func (b *BatchMesh) SetTracer(t Tracer) { b.tracer = t }

// Render draws lane 0's state as one character per module:
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
// the correction chain and any hot module left unresolved (of the
// batch's last decode, when several lanes ran).
func (b *BatchMesh) Render() string { return b.render(0) }
