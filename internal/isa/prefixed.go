package isa

// Prefixed returns a Stream that replays prefix first, then continues
// with rest. The multicore migration path uses it to carry a thread's
// fetched-but-uncommitted instructions across a core move: the window
// is squashed on the source core, and the destination re-fetches those
// instructions from the prefix before resuming the underlying stream.
//
// Prefixed takes ownership of both arguments; the caller must not
// advance rest or mutate prefix afterwards. An empty prefix returns
// rest unchanged.
func Prefixed(prefix []Inst, rest Stream) Stream {
	if len(prefix) == 0 {
		return rest
	}
	return &prefixedStream{prefix: prefix, rest: rest}
}

type prefixedStream struct {
	prefix []Inst
	pos    int
	rest   Stream
}

func (p *prefixedStream) Next(out *Inst) bool {
	if p.pos < len(p.prefix) {
		*out = p.prefix[p.pos]
		p.pos++
		return true
	}
	return p.rest.Next(out)
}

// CloneStream ignores dst: prefixed streams live only across a
// migration, never in a recycled checkpoint.
func (p *prefixedStream) CloneStream(Stream) Stream {
	return &prefixedStream{
		prefix: append([]Inst(nil), p.prefix...),
		pos:    p.pos,
		rest:   p.rest.CloneStream(nil),
	}
}
