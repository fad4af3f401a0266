package cachesim

// bankSched tracks one L2 bank's busy intervals so that a request arriving
// before an already-reserved future interval (e.g. a DRAM fill scheduled
// hundreds of cycles ahead) can still use the idle bank now. Intervals are
// kept sorted by start time; intervals far in the past are pruned.
type bankSched struct {
	iv []busyInterval
}

type busyInterval struct {
	start, end uint64 // [start, end)
}

// pruneSlack keeps recently expired intervals around to tolerate slightly
// out-of-order arrival times across cores.
const pruneSlack = 4096

// reserve books the earliest interval of length dur starting at or after
// earliest, and returns its start time.
//
//desclint:hotpath
func (b *bankSched) reserve(earliest, dur uint64) uint64 {
	if dur == 0 {
		dur = 1
	}
	// Prune intervals that ended long before `earliest`.
	if len(b.iv) > 0 && earliest > pruneSlack {
		cut := earliest - pruneSlack
		i := 0
		for i < len(b.iv) && b.iv[i].end < cut {
			i++
		}
		if i > 0 {
			b.iv = b.iv[:copy(b.iv, b.iv[i:])]
		}
	}
	// Intervals never overlap, so their ends ascend with their starts.
	// Every interval that ended by `earliest` neither fits the request
	// nor delays it; binary search skips them.
	pos, hi := 0, len(b.iv)
	for pos < hi {
		m := int(uint(pos+hi) >> 1)
		if b.iv[m].end <= earliest {
			pos = m + 1
		} else {
			hi = m
		}
	}
	start := earliest
	for pos < len(b.iv) {
		cur := b.iv[pos]
		if start+dur <= cur.start {
			break // fits in the gap before cur
		}
		if cur.end > start {
			start = cur.end
		}
		pos++
	}
	b.iv = append(b.iv, busyInterval{})
	copy(b.iv[pos+1:], b.iv[pos:])
	b.iv[pos] = busyInterval{start: start, end: start + dur}
	return start
}
