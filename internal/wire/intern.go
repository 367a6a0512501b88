package wire

// Interner memoises the short strings a connection keeps decoding —
// tenant and task names — so a name seen recently costs a compare and
// no allocation. It is a fixed 2-way set-associative table, not a map:
// the names are client-supplied, so what one connection can make it
// retain is bounded by construction (internSets × 2 strings of at most
// internMaxLen bytes), however many distinct names arrive. Longer
// strings and misses are plain copies, and so is everything through a
// nil Interner. Not safe for concurrent use; each connection's reader
// owns one.
type Interner struct {
	sets [internSets][2]string
}

const (
	internSets   = 32
	internMaxLen = 64
)

// Intern returns b as a string that never aliases b.
func (in *Interner) Intern(b []byte) string {
	if in == nil || len(b) == 0 || len(b) > internMaxLen {
		return string(b)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	set := &in.sets[h%internSets]
	if set[0] == string(b) {
		return set[0]
	}
	if set[1] == string(b) {
		set[0], set[1] = set[1], set[0]
		return set[0]
	}
	// Miss: the new name takes the front way, the older resident is
	// demoted, the oldest falls out.
	set[0], set[1] = string(b), set[0]
	return set[0]
}
