package denseset

import (
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"atmostonce/internal/oset"
)

func TestBasicOps(t *testing.T) {
	s := New()
	if s.Len() != 0 || s.Contains(0) || s.Contains(5) {
		t.Fatal("zero value not empty")
	}
	if !s.Insert(5) || s.Insert(5) {
		t.Fatal("Insert absent/present misreported")
	}
	if !s.Contains(5) || s.Contains(4) || s.Len() != 1 {
		t.Fatal("Contains/Len wrong after insert")
	}
	if !s.Delete(5) || s.Delete(5) || s.Delete(1000) {
		t.Fatal("Delete present/absent misreported")
	}
	if s.Len() != 0 {
		t.Fatal("Len after delete")
	}
}

func TestResetRange(t *testing.T) {
	s := New()
	for _, tc := range []struct{ lo, hi int }{
		{1, 1}, {1, 64}, {1, 65}, {63, 65}, {0, 200}, {128, 128}, {5, 4},
	} {
		s.ResetRange(tc.lo, tc.hi)
		want := tc.hi - tc.lo + 1
		if want < 0 {
			want = 0
		}
		if s.Len() != want {
			t.Fatalf("ResetRange(%d,%d): Len=%d want %d", tc.lo, tc.hi, s.Len(), want)
		}
		for v := 0; v <= tc.hi+64; v++ {
			if got, want := s.Contains(v), v >= tc.lo && v <= tc.hi; got != want {
				t.Fatalf("ResetRange(%d,%d): Contains(%d)=%v", tc.lo, tc.hi, v, got)
			}
		}
	}
}

func TestSelectRankMinMax(t *testing.T) {
	s := NewRange(10, 200)
	if v, ok := s.Min(); !ok || v != 10 {
		t.Fatalf("Min=%d,%v", v, ok)
	}
	if v, ok := s.Max(); !ok || v != 200 {
		t.Fatalf("Max=%d,%v", v, ok)
	}
	for i := 1; i <= s.Len(); i++ {
		if v, ok := s.Select(i); !ok || v != 9+i {
			t.Fatalf("Select(%d)=%d,%v", i, v, ok)
		}
	}
	if _, ok := s.Select(0); ok {
		t.Fatal("Select(0) ok")
	}
	if _, ok := s.Select(s.Len() + 1); ok {
		t.Fatal("Select(len+1) ok")
	}
}

// recount checks every level against the words it summarizes: each
// block's count and word mask, each super-block's count and block mask,
// and the total; and that all levels share the bitmap's one array. A mask
// may name an emptied word or block, never miss a nonempty one.
func recount(t *testing.T, s *Set, when string) {
	t.Helper()
	nb, ns := (len(s.words)+blockWords-1)/blockWords, 0
	if nb > 1 {
		ns = (nb + blockWords - 1) / blockWords
	}
	if len(s.cnt) != nb || len(s.wmask) != nb || len(s.scnt) != ns || len(s.bmask) != ns {
		t.Fatalf("%s: %d words with %d/%d block and %d/%d super-block words, want %d and %d",
			when, len(s.words), len(s.cnt), len(s.wmask), len(s.scnt), len(s.bmask), nb, ns)
	}
	last := s.wmask
	if ns > 0 {
		last = s.bmask
	}
	if all := s.words[:cap(s.words)]; len(all) != len(s.words)+2*(nb+ns) ||
		nb > 0 && (&all[len(s.words)] != &s.cnt[0] || &all[len(all)-1] != &last[len(last)-1]) {
		t.Fatalf("%s: the levels do not share the bitmap's array", when)
	}
	total := 0
	for b := range s.cnt {
		c := 0
		for k, w := range s.block(b) {
			c += bits.OnesCount64(w)
			if w != 0 && s.wmask[b]>>k&1 == 0 {
				t.Fatalf("%s: block %d does not mark its word %d, which holds %#x", when, b, k, w)
			}
		}
		if int(s.cnt[b]) != c {
			t.Fatalf("%s: block %d counts %d, holds %d", when, b, s.cnt[b], c)
		}
		total += c
	}
	for j := range s.scnt {
		c, mask := 0, uint64(0)
		for b := j * blockWords; b < min((j+1)*blockWords, nb); b++ {
			c += int(s.cnt[b])
			if s.cnt[b] != 0 {
				mask |= 1 << (b % blockWords)
			}
		}
		if int(s.scnt[j]) != c || mask&^s.bmask[j] != 0 {
			t.Fatalf("%s: super-block %d counts %d with mask %#x, holds %d with %#x", when, j, s.scnt[j], s.bmask[j], c, mask)
		}
	}
	if s.n != total {
		t.Fatalf("%s: Len %d, holds %d", when, s.n, total)
	}
}

// TestAgainstOset drives random mutations through a counted bitmap and the
// red-black reference in lockstep and compares every query, including the
// rank(SET1, SET2, i) operation: inside one block (700), across two (5000),
// at the paper's sizes with dense windows of 8 blocks that straddle a
// super-block edge (1<<20 and 1<<22, four and sixteen super-blocks), and
// with a few hundred ids scattered over 64 blocks (sparse), whose words
// and blocks empty and refill. The exclusion set only ever holds ids of
// the lower half of the universe, so its bitmap is shorter than the
// set's — in the small universes it ends inside a block the set
// continues in.
func TestAgainstOset(t *testing.T) {
	for _, tc := range []struct {
		name     string
		universe int
		steps    int
		sparse   bool // draw ids from a few clusters, keep the set small
		window   int  // > 0: draw half the ids from a dense window this wide
	}{
		{"u=700", 700, 20000, false, 0},
		{"u=5000", 5000, 20000, false, 0},
		{"u=1<<20", 1 << 20, 6000, false, 1 << 15},
		{"u=1<<20-sparse", 1 << 20, 6000, true, 0},
		{"u=1<<22", 1 << 22, 6000, false, 1 << 15},
		{"u=1<<22-sparse", 1 << 22, 6000, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			universe := tc.universe
			pick := func() int { return rng.Intn(universe) }
			win := 0 // the dense window's first id
			switch {
			case tc.sparse:
				pick = func() int { return rng.Intn(64)*(universe/64) + rng.Intn(8) }
			case tc.window > 0:
				pick = func() int {
					if rng.Intn(2) == 0 {
						return win + rng.Intn(tc.window)
					}
					return rng.Intn(universe)
				}
			}
			d, ref := New(), oset.New()
			excl, refExcl := New(), oset.New()
			for step := 0; step < tc.steps; step++ {
				v := pick()
				switch op := rng.Intn(5); {
				case step%500 == 250:
					lo, hi := pick(), pick()
					switch {
					case tc.sparse:
						hi = lo + rng.Intn(9000) - 500 // a few blocks, or empty
					case tc.window > 0:
						// Fill a new window across a super-block edge.
						win = (1+rng.Intn(universe>>18-1))<<18 - rng.Intn(tc.window)
						lo, hi = win, win+tc.window-1
					}
					d.ResetRange(lo, hi)
					ref.ResetRange(lo, hi)
				case step%300 == 100:
					lo := pick()
					hi := lo + rng.Intn(min(universe-lo, 9000))
					d.InsertRange(lo, hi)
					for k := lo; k <= hi; k++ {
						ref.Insert(k)
					}
				case step%700 == 350:
					// Clear after sparse inserts: only the occupied blocks
					// may be touched, and all of them must be.
					d.Clear()
					ref.Clear()
					for k := 0; k < 5; k++ {
						v := pick()
						d.Insert(v)
						ref.Insert(v)
					}
				case op <= 1:
					if d.Insert(v) != ref.Insert(v) {
						t.Fatalf("step %d: Insert(%d) disagrees", step, v)
					}
				case op == 2:
					if d.Delete(v) != ref.Delete(v) {
						t.Fatalf("step %d: Delete(%d) disagrees", step, v)
					}
				case op == 3:
					if d.Insert(v) != ref.Insert(v) {
						t.Fatalf("step %d: Insert(%d) disagrees", step, v)
					}
					if v < universe/2 {
						excl.Insert(v)
						refExcl.Insert(v)
					}
				case op == 4:
					excl.Delete(v)
					refExcl.Delete(v)
				}
				if d.Len() != ref.Len() {
					t.Fatalf("step %d: Len %d vs %d", step, d.Len(), ref.Len())
				}
				if d.Contains(v) != ref.Contains(v) {
					t.Fatalf("step %d: Contains(%d) disagrees", step, v)
				}
				if step%50 != 0 {
					continue
				}
				recount(t, d, "set")
				recount(t, excl, "exclusion set")
				i := rng.Intn(d.Len()+2) + 1
				dv, dok := d.Select(i)
				rv, rok := ref.Select(i)
				if dv != rv || dok != rok {
					t.Fatalf("step %d: Select(%d) = %d,%v vs %d,%v", step, i, dv, dok, rv, rok)
				}
				dv, dok = d.SelectExcluding(excl, i)
				rv, rok = ref.SelectExcluding(refExcl, i)
				if dv != rv || dok != rok {
					t.Fatalf("step %d: SelectExcluding(%d) = %d,%v vs %d,%v", step, i, dv, dok, rv, rok)
				}
				dv, dok = d.Min()
				rv, rok = ref.Min()
				if dv != rv || dok != rok {
					t.Fatalf("step %d: Min = %d,%v vs %d,%v", step, dv, dok, rv, rok)
				}
				dv, dok = d.Max()
				rv, rok = ref.Max()
				if dv != rv || dok != rok {
					t.Fatalf("step %d: Max = %d,%v vs %d,%v", step, dv, dok, rv, rok)
				}
				if got, want := d.Slice(), ref.Slice(); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: Slice differs: %d vs %d elements", step, len(got), len(want))
				}
			}
		})
	}
}

// TestBlockEdges walks the places where the second level can go wrong: the
// last id of one block and the first of the next, ranges that straddle a
// block boundary, and rank queries whose answer is the first or last id of
// a block. Counters are recounted from the words after every operation.
func TestBlockEdges(t *testing.T) {
	const blockIDs = blockWords * 64 // 4096

	// A round-sized set is one short block: the bitmap is not padded to
	// whole blocks, so scans and Clear touch 17 words, not 64. A set that
	// fills one block exactly has no super-block either; one word more
	// and it has one, in the same single array.
	for _, tc := range []struct{ hi, words, blocks, supers int }{
		{1024, 17, 1, 0}, {blockIDs - 1, 64, 1, 0}, {blockIDs, 65, 2, 1},
	} {
		s := NewRange(1, tc.hi)
		if len(s.words) != tc.words || len(s.cnt) != tc.blocks || len(s.scnt) != tc.supers {
			t.Fatalf("NewRange(1, %d) holds %d words in %d blocks and %d super-blocks, want %d, %d, %d",
				tc.hi, len(s.words), len(s.cnt), len(s.scnt), tc.words, tc.blocks, tc.supers)
		}
		recount(t, s, "NewRange")
	}

	s := New()
	for _, v := range []int{blockIDs - 1, blockIDs, blockIDs + 1} {
		if !s.Insert(v) || s.Insert(v) {
			t.Fatalf("Insert(%d) misreported", v)
		}
		recount(t, s, "insert at the block edge")
	}
	if got := s.Slice(); !reflect.DeepEqual(got, []int{4095, 4096, 4097}) {
		t.Fatalf("Slice = %v", got)
	}
	if !s.Delete(blockIDs) || s.Delete(blockIDs) {
		t.Fatal("Delete(4096) misreported")
	}
	recount(t, s, "delete at the block edge")
	if v, ok := s.Select(2); !ok || v != 4097 {
		t.Fatalf("Select(2) = %d,%v, want 4097", v, ok)
	}

	for _, tc := range []struct {
		name   string
		lo, hi int
	}{
		{"inside the first block", 10, 4000},
		{"exactly one block", 0, blockIDs - 1},
		{"ends on the last id of a block", 100, 2*blockIDs - 1},
		{"starts on the first id of a block", blockIDs, blockIDs + 70},
		{"straddles one boundary", blockIDs - 3, blockIDs + 3},
		{"straddles two boundaries", blockIDs - 1, 3 * blockIDs},
		{"one id each side", blockIDs - 1, blockIDs},
		{"empty", 9, 8},
	} {
		want := max(tc.hi-tc.lo+1, 0)
		check := func(s *Set, when string) {
			t.Helper()
			recount(t, s, tc.name+": "+when)
			if s.Len() != want {
				t.Fatalf("%s: %s: Len %d, want %d", tc.name, when, s.Len(), want)
			}
			if want == 0 {
				return
			}
			if v, _ := s.Min(); v != tc.lo {
				t.Fatalf("%s: %s: Min %d, want %d", tc.name, when, v, tc.lo)
			}
			if v, _ := s.Max(); v != tc.hi {
				t.Fatalf("%s: %s: Max %d, want %d", tc.name, when, v, tc.hi)
			}
			if s.Contains(tc.lo-1) || s.Contains(tc.hi+1) {
				t.Fatalf("%s: %s: range leaked past its ends", tc.name, when)
			}
		}
		s := New(3*blockIDs + 9) // a far element ResetRange must remove
		s.ResetRange(tc.lo, tc.hi)
		check(s, "ResetRange")

		// InsertRange over a set that already holds part of the range counts
		// only what it adds.
		s = New()
		if want > 0 {
			s.Insert(tc.lo)
			s.Insert(tc.hi)
			s.Insert((tc.lo + tc.hi) / 2)
		}
		s.InsertRange(tc.lo, tc.hi)
		check(s, "InsertRange over members")

		// Every rank, with and without an exclusion, against arithmetic:
		// excl removes the ids on both sides of each boundary the range
		// crosses, so the answers land on block edges.
		excl := New()
		var kept []int
		for v := tc.lo; v <= tc.hi; v++ {
			if r := v % blockIDs; r == 0 || r == blockIDs-1 {
				excl.Insert(v)
			} else {
				kept = append(kept, v)
			}
		}
		for _, i := range []int{1, 2, want / 2, want - 1, want} {
			if i < 1 || i > want {
				continue
			}
			if v, ok := s.Select(i); !ok || v != tc.lo+i-1 {
				t.Fatalf("%s: Select(%d) = %d,%v, want %d", tc.name, i, v, ok, tc.lo+i-1)
			}
			if v, ok := s.SelectExcluding(New(), i); !ok || v != tc.lo+i-1 {
				t.Fatalf("%s: SelectExcluding(∅, %d) = %d,%v, want %d", tc.name, i, v, ok, tc.lo+i-1)
			}
			v, ok := s.SelectExcluding(excl, i)
			if i > len(kept) {
				if ok {
					t.Fatalf("%s: SelectExcluding(%d) = %d past the %d ids left", tc.name, i, v, len(kept))
				}
			} else if !ok || v != kept[i-1] {
				t.Fatalf("%s: SelectExcluding(%d) = %d,%v, want %d", tc.name, i, v, ok, kept[i-1])
			}
		}
		for b := tc.lo / blockIDs; want > 0 && b <= tc.hi/blockIDs; b++ {
			// The first and the last id the range holds in block b.
			first, last := max(tc.lo, b*blockIDs), min(tc.hi, (b+1)*blockIDs-1)
			for _, v := range []int{first, last} {
				if got, ok := s.Select(v - tc.lo + 1); !ok || got != v {
					t.Fatalf("%s: Select(%d) = %d,%v, want %d", tc.name, v-tc.lo+1, got, ok, v)
				}
				if got, ok := s.SelectExcluding(New(), v-tc.lo+1); !ok || got != v {
					t.Fatalf("%s: SelectExcluding(∅, %d) = %d,%v, want %d", tc.name, v-tc.lo+1, got, ok, v)
				}
			}
		}
		s.Clear()
		want = 0
		check(s, "Clear")
	}
}

// TestSelectExcludingShortExcl: the exclusion set's bitmap ends inside a
// block in which the set goes on — the word index must be checked against
// excl's own length, not the set's.
// TestOrWordsAgainstInsert: a word slice ORed in at a 64-aligned base
// leaves the set the same bits Inserted one by one do — over bits already
// present, past the end of the bitmap, and across block boundaries
// (slices of up to 150 words start anywhere in the first three blocks).
func TestOrWordsAgainstInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 200; round++ {
		bulk, ref := New(), New()
		for i := rng.Intn(300); i > 0; i-- { // bits already present
			v := rng.Intn(3 * blockWords * 64)
			bulk.Insert(v)
			ref.Insert(v)
		}
		for call := 0; call < 3; call++ {
			base := 64 * rng.Intn(3*blockWords)
			words := make([]uint64, rng.Intn(150))
			for i := range words {
				switch rng.Intn(4) {
				case 0: // empty word
				case 1:
					words[i] = ^uint64(0)
				default:
					words[i] = rng.Uint64() & rng.Uint64()
				}
			}
			bulk.OrWords(base, words)
			for i, w := range words {
				for ; w != 0; w &= w - 1 {
					ref.Insert(base + 64*i + bits.TrailingZeros64(w))
				}
			}
		}
		recount(t, bulk, "after OrWords")
		if bulk.Len() != ref.Len() || !reflect.DeepEqual(bulk.Slice(), ref.Slice()) {
			t.Fatalf("round %d: OrWords holds %d ids, Insert holds %d", round, bulk.Len(), ref.Len())
		}
		bmin, bok := bulk.Min()
		rmin, rok := ref.Min()
		bmax, _ := bulk.Max()
		rmax, _ := ref.Max()
		if bmin != rmin || bok != rok || bmax != rmax {
			t.Fatalf("round %d: Min/Max %d,%d want %d,%d", round, bmin, bmax, rmin, rmax)
		}
		for probe := 0; probe < 64; probe++ {
			v := rng.Intn(6 * blockWords * 64)
			if bulk.Contains(v) != ref.Contains(v) {
				t.Fatalf("round %d: Contains(%d) = %v, want %v", round, v, bulk.Contains(v), ref.Contains(v))
			}
			i := 1 + rng.Intn(ref.Len()+1)
			bv, bok := bulk.Select(i)
			rv, rok := ref.Select(i)
			if bv != rv || bok != rok {
				t.Fatalf("round %d: Select(%d) = %d,%v want %d,%v", round, i, bv, bok, rv, rok)
			}
		}
	}
}

// TestSelectInWord checks the broadword select against clearing the low
// set bits one at a time, over every rank of words with bits in every
// byte, in none, and in one.
func TestSelectInWord(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	words := []uint64{1, 1 << 63, ^uint64(0), 0x8000000000000001, 0xff00, 0x0101010101010101}
	for i := 0; i < 2000; i++ {
		words = append(words, rng.Uint64(), rng.Uint64()&rng.Uint64()&rng.Uint64(), rng.Uint64()|rng.Uint64())
	}
	for _, w := range words {
		low := w
		for i := 1; i <= bits.OnesCount64(w); i++ {
			if got, want := selectInWord(w, i), bits.TrailingZeros64(low); got != want {
				t.Fatalf("selectInWord(%#x, %d) = %d, want %d", w, i, got, want)
			}
			low &= low - 1
		}
	}
}

// TestAppendAbsent checks the ids of a range missing from a set against
// Contains, over ranges that start and end inside words, span the set's
// end and lie beyond it.
func TestAppendAbsent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 200; round++ {
		s := New()
		for i := rng.Intn(400); i > 0; i-- {
			s.Insert(rng.Intn(2 * blockWords * 64))
		}
		lo := rng.Intn(3 * blockWords * 64)
		hi := lo - 1 + rng.Intn(3*blockWords*64)
		var want []int
		for v := lo; v <= hi; v++ {
			if !s.Contains(v) {
				want = append(want, v)
			}
		}
		if got := s.AppendAbsent(nil, lo, hi); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: AppendAbsent(%d, %d) = %d ids, want %d", round, lo, hi, len(got), len(want))
		}
	}
	if got := NewRange(1, 100).AppendAbsent([]int{7}, 1, 100); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("a full range appended %v", got)
	}
}

func TestSelectExcludingShortExcl(t *testing.T) {
	s := NewRange(1, 1024) // 17 words, one block
	excl := New(1, 2, 70)  // 2 words
	recount(t, excl, "excl")
	for i, want := range map[int]int{1: 3, 67: 69, 68: 71, 1021: 1024} {
		if v, ok := s.SelectExcluding(excl, i); !ok || v != want {
			t.Fatalf("SelectExcluding(%d) = %d,%v, want %d", i, v, ok, want)
		}
	}
	if v, ok := s.SelectExcluding(excl, 1022); ok {
		t.Fatalf("SelectExcluding(1022) = %d, want none", v)
	}
	// And the other way round: excl longer than the set.
	long := New(5, 9000)
	if v, ok := NewRange(1, 10).SelectExcluding(long, 5); !ok || v != 6 {
		t.Fatalf("SelectExcluding against a longer excl = %d,%v, want 6", v, ok)
	}
}

// TestSelectSkippingBruteForce compares rank(SET1, SET2, i) over a sorted
// skip list, and SelectExcluding over the same ids as a set, with a
// brute-force count: on a set of one block, of five blocks and of four
// super-blocks whose blocks empty and refill. The skip lists mix ids the
// set holds with ids it lacks, and put ids on both sides of word, block
// and super-block edges; the longer ones pass SelectExcluding's 64-id
// batches.
func TestSelectSkippingBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, u := range []int{700, 5 * 4096, 3<<18 + 100} {
		s := New()
		for v := rng.Intn(3); v <= u; v += 1 + rng.Intn(5) {
			s.Insert(v)
		}
		for b := 1; b*4096 <= u; b += 3 { // emptied blocks the masks still name
			for v := b * 4096; v < min((b+1)*4096, u); v++ {
				s.Delete(v)
			}
		}
		var f Finger // walked by every check below, kept through deletes
		near := 0    // the last answer checked, where f sits
		for trial := 0; trial < 12; trial++ {
			for range 40 {
				f.Delete(s, rng.Intn(u))
			}
			skip := New()
			for range []int{0, 3, 40, 64, 65, 200}[trial%6] {
				skip.Insert(rng.Intn(u + 64))
			}
			for _, e := range []int{64, 4096, 1 << 18} { // word, block, super-block
				for range 4 {
					k := e * (1 + rng.Intn(max(u/e, 1)))
					skip.Insert(k - 1)
					skip.Insert(k)
				}
			}
			ids, want := skip.Slice(), []int(nil)
			s.Ascend(func(v int) bool {
				if !skip.Contains(v) {
					want = append(want, v)
				}
				return true
			})
			check := func(i int) {
				w, wok := 0, i >= 1 && i <= len(want)
				if wok {
					w, near = want[i-1], want[i-1]
				}
				if v, ok := s.SelectSkipping(ids, i); v != w || ok != wok {
					t.Fatalf("u=%d trial %d: SelectSkipping(%d ids, %d) = %d,%v, want %d,%v", u, trial, len(ids), i, v, ok, w, wok)
				}
				if v, ok := s.SelectFrom(&f, ids, i); v != w || ok != wok {
					t.Fatalf("u=%d trial %d: SelectFrom(%d ids, %d) = %d,%v, want %d,%v", u, trial, len(ids), i, v, ok, w, wok)
				}
				if v, ok := s.SelectExcluding(skip, i); v != w || ok != wok {
					t.Fatalf("u=%d trial %d: SelectExcluding(%d ids, %d) = %d,%v, want %d,%v", u, trial, len(ids), i, v, ok, w, wok)
				}
			}
			r := sort.SearchInts(want, near) // first by the finger, past the deletes
			for i := r - 1; i <= r+2; i++ {
				check(i)
			}
			for i := -1; i <= len(want)+2; i += 1 + rng.Intn(len(want)/500+1) {
				check(i)
			}
			for _, x := range ids { // the answers around each skipped id
				r := sort.SearchInts(want, x)
				for i := r - 1; i <= r+2; i++ {
					check(i)
				}
			}
		}
	}
}

// TestSelectExcludingAllocFree: the adapter's ids stay on the stack, so
// selecting against an exclusion set of 64 ids allocates nothing.
func TestSelectExcludingAllocFree(t *testing.T) {
	for _, u := range []int{1024, 1 << 20} {
		s, excl := NewRange(1, u), New()
		for k := 1; k <= 64; k++ {
			excl.Insert(k * (u / 64))
		}
		if a := testing.AllocsPerRun(100, func() { s.SelectExcluding(excl, u/2) }); a != 0 {
			t.Errorf("u=%d: SelectExcluding allocates %v times", u, a)
		}
	}
}

// TestMakeSetsIndependent: Make's sets share one array but no word. Each
// set is filled with its own ids, in its first and last words too, and
// must then hold exactly them, its levels counted right; one set grown
// past n and one cloned leave the others as they were.
func TestMakeSetsIndependent(t *testing.T) {
	for _, n := range []int{700, 5000, 1<<19 + 1} {
		ss := Make(5, n)
		fill := func(i, v int) bool { return v%7 == i || v < 64 && v%5 == i || v > n-64 && v%3 == i%3 }
		for i := range ss {
			for v := 0; v <= n; v++ {
				if fill(i, v) {
					ss[i].Insert(v)
				}
			}
		}
		verify := func(when string) {
			for i := range ss {
				recount(t, &ss[i], when)
				for v := 0; v <= n; v++ {
					if ss[i].Contains(v) != fill(i, v) {
						t.Fatalf("n=%d %s: set %d Contains(%d) = %v", n, when, i, v, !fill(i, v))
					}
				}
			}
		}
		verify("filled")
		ss[1].Insert(2 * n)
		ss[1].Delete(2 * n)
		ss[2].Clone().Insert(n)
		verify("after a grow and a clone")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewRange(1, 100)
	c := s.Clone()
	s.Delete(50)
	if !c.Contains(50) || c.Len() != 100 {
		t.Fatal("Clone shares storage")
	}
	c.Insert(200)
	if s.Contains(200) {
		t.Fatal("Clone mutation leaked back")
	}
}

// TestSteadyStateAllocs is the property the round loop builds on: after
// Reserve, a fill/drain cycle at a fixed universe allocates nothing — a
// round's one block, and a million ids over four super-blocks.
func TestSteadyStateAllocs(t *testing.T) {
	for _, u := range []int{1024, 1 << 20} {
		s := New()
		excl := New()
		s.Reserve(u)
		excl.Reserve(u)
		allocs := testing.AllocsPerRun(100, func() {
			s.ResetRange(1, u)
			excl.Clear()
			for v := 1; v <= u; v += u / 146 {
				excl.Insert(v)
			}
			for i := 0; i < 64; i++ {
				if v, ok := s.SelectExcluding(excl, i*u/300+1); ok {
					s.Delete(v)
				}
			}
			s.Ascend(func(int) bool { return true })
		})
		if allocs != 0 {
			t.Fatalf("u=%d: steady-state cycle allocates %v times per run", u, allocs)
		}
	}
}

// TestGrowAndCloneAllocateOnce: all levels share one array, so a set that
// grows allocates once, and a clone twice — the array and the Set.
func TestGrowAndCloneAllocateOnce(t *testing.T) {
	for _, u := range []int{1024, 1 << 20} {
		src := NewRange(1, u)
		if a := testing.AllocsPerRun(20, func() {
			g := *src // shares src's array until it grows
			g.Insert(2 * u)
		}); a != 1 {
			t.Errorf("u=%d: growing allocates %v times, want 1", u, a)
		}
		var c *Set
		if a := testing.AllocsPerRun(20, func() { c = src.Clone() }); a != 2 {
			t.Errorf("u=%d: Clone allocates %v times, want 2", u, a)
		}
		recount(t, c, "clone")
	}
}

// benchSets builds FREE = [1..u] and a TRY of a few announced jobs spread
// over it, as a process sees them in comp_next.
func benchSets(u int) (free, try *Set, avail int) {
	free, try = NewRange(1, u), New()
	for k := u / 16; k <= u; k += u / 16 {
		try.Insert(k)
	}
	return free, try, u - try.Len()
}

var benchSink int

func BenchmarkSelectExcluding(b *testing.B) {
	for _, tc := range []struct {
		name string
		u    int
	}{{"u=1024", 1024}, {"u=1<<20", 1 << 20}} {
		b.Run(tc.name, func(b *testing.B) {
			free, try, avail := benchSets(tc.u)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, _ := free.SelectExcluding(try, (i*7919)%avail+1)
				benchSink += v
			}
		})
	}
}

// BenchmarkResetDrain is one round's life of a FREE set: refill, then
// delete every key. Reported per cycle of 1024 keys.
func BenchmarkResetDrain(b *testing.B) {
	b.Run("u=1024", func(b *testing.B) {
		const u = 1024
		free := NewRange(1, u)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			free.ResetRange(1, u)
			for k := 1; k <= u; k++ {
				free.Delete(k)
			}
		}
	})
}
