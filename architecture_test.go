package atmostonce

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"slices"
	"strings"
	"testing"
)

// archRule is a structural fact the at-most-once guarantee leans on, as
// line patterns no file may match. A new rule is a row, not a CI step.
type archRule struct {
	name, design, why string // design: the DESIGN.md § the rule protects
	clauses           []archClause
}

// archClause is a pattern over the files under in but not outside (paths
// from the module root) whose base names match files, grep's --include or,
// led by "-", --exclude. code skips comment lines; unless forgives a
// match. plant is a line the clause must flag.
type archClause struct {
	re                 string
	in, files, outside []string
	code               bool
	unless             func(match []string) bool
	plant              string
}

var goAll, goTests, goProd = []string{"*.go"}, []string{"*_test.go"}, []string{"*.go", "-*_test.go"}

// architecture is the table. sections holds DESIGN.md's § headings.
func architecture(sections map[string]bool) []archRule {
	return []archRule{
		{"No unstructured logging in internal/", "11", "internal/ logs through internal/obs/eventlog: a stray print bypasses the flight ring and loses the incarnation stamp", []archClause{
			{re: `\b(fmt\.Print(ln|f)?|log\.Print(ln|f)?|log\.Fatal(ln|f)?|log\.Panic(ln|f)?)\(`, in: []string{"internal"}, files: goProd, plant: `fmt.Println("tick", n)`}}},
		{"No capability discovery on backends", "7", "membackend.Backend is the whole contract: nothing about a backend is discovered by type assertion", []archClause{
			{re: `\.\((membackend\.)?(AckedWriter|BatchAckedWriter|JournalWriter|BatchJournalWriter|RangeReader|Swapper|Reopener)\)|case (membackend\.)?(AckedWriter|JournalWriter|BatchJournalWriter|Swapper)`, in: []string{"."}, files: goAll, plant: `if sw, ok := b.(membackend.Swapper); ok {`}}},
		{"One test store", "7", "a test counts, tears or crashes a store through memtest.Lossy and kills an incarnation through memtest.Host; backend kinds are registered by the backend packages", []archClause{
			{re: `^func \([^)]*\) WriteAcked\(`, in: []string{"."}, files: goTests, plant: `func (s *tornStore) WriteAcked(addr int, v []int64) error {`},
			{re: `membackend\.Register\("`, in: []string{"."}, files: goProd, outside: []string{"internal/membackend", "internal/netmem"}, plant: `membackend.Register("counting", openCounting)`},
			{re: `\babandon\(|\.abandoned\b|\bKeep +func\b`, in: []string{"."}, files: goAll, outside: []string{"bench"}, plant: `d.abandon()`}}},
		{"One adversary", "1", "a round is scheduled free or by a sim.Adversary through sim.Run: no noise, crash vector or yield beside it (examples/recover keeps its own Gosched)", []archClause{
			{re: `\bJitter\b|crashVector`, in: []string{"internal", "cmd", "examples", "atmostonce.go"}, files: goProd, plant: `cfg.Jitter = 3`},
			{re: `runtime\.Gosched\(`, in: []string{"internal/conc"}, files: goProd, plant: `runtime.Gosched()`}}},
		{"One crash drill", "12", "a program re-runs itself as a child, logs the jobs an incarnation performed and counts them through internal/lifeline alone: one start that reaps, one O_APPEND log, one strict reader", []archClause{
			{re: `performed\.log|os\.O_APPEND|os\.Executable\(\)`, in: []string{"."}, files: goProd, outside: []string{"internal/lifeline"}, plant: `self, err := os.Executable()`}}},
		{"One accept loop", "8", "both servers listen, accept and close through wire.Server and bring only what they do with a connection", []archClause{
			{re: `\.Accept\(\)`, in: []string{"internal"}, files: goProd, outside: []string{"internal/wire"}, plant: `nc, err := ln.Accept()`}}},
		{"One shared word per submission", "9", "a submission writes one dispatcher-wide word, the id cursor, which also carries Close and picks the shard", []archClause{
			{re: `closeMu|\brr\b|sync\.RWMutex|shardCount`, in: []string{"internal/dispatch"}, files: goProd, plant: `closeMu sync.RWMutex`}}},
		{"One dispatcher", "7", "Dispatcher and DispatcherConfig alias the engine's types, normalize alone turns a spec into shard stores (bench/ counts the files it leaves), and a kind's opener alone places a suffix", []archClause{
			{re: `^func \(d \*Dispatcher\)|^type Dispatcher(Config)? struct`, in: []string{"dispatcher.go"}, files: goAll, plant: `type Dispatcher struct {`},
			{re: `"[^"]*\.shard`, in: []string{"."}, files: goProd, outside: []string{"internal/dispatch", "bench"}, code: true, plant: `name := fmt.Sprintf("%s.shard%d", ns, i)`},
			{re: `\b(WithSuffix|ShardSpec|RegisterSuffixer|RegisterGroup)\(`, in: []string{"."}, files: goAll, plant: `spec := membackend.WithSuffix(base, ".j0")`}}},
		{"Stores are written acked and read ranged", "7", "production code stores through WriteAcked and reads through ReadRange: a plain Write is a cell no flush is known to carry, a Read a round trip per cell over net:", []archClause{
			{re: `(\.backend|\bl\.b|\bb)\.(Read|Write)\(`, in: []string{"internal/jobd", "internal/dispatch"}, files: goProd, plant: `v := l.b.Read(at)`}}},
		{"One read and one write on the wire", "8", "the register protocol has one read (read_range) and one write (write_acked); ops 5, 6 and the reply 17 are reserved", []archClause{
			{re: `\bop(Read|Write|Value)\b`, in: []string{"internal/netmem"}, files: goProd, plant: `case opRead:`}}},
		{"A store's stamp comes from its opener", "7", "the journal and the descriptor log hand the cell 0 membackend.OpenEach reported to membackend.Format.Open and never read it to open a store", []archClause{
			{re: `ReadRange\(0,`, in: []string{"internal/dispatch", "internal/jobd"}, files: goProd, plant: `err := b.ReadRange(0, cell0[:])`}}},
		{"One process shape", "1", "a simulated process reports to the one sim.DoSink, and its id, status, work and stop come from sim.Base unless it is core's", []archClause{
			{re: `DoSink\s+interface\b`, in: []string{"."}, files: goAll, outside: []string{"internal/sim"}, plant: `type DoSink interface {`},
			{re: `\) Crash\(\) *\{.*sim\.Crashed\b`, in: []string{"."}, files: goAll, plant: `func (p *TASProc) Crash() { p.status = sim.Crashed }`}}},
		{"Every DESIGN.md §N cited names a heading", "", "a section that is folded away takes its citations with it (a bare §N is a section of the paper)", []archClause{
			{re: `DESIGN(\.md)?,? §([0-9]+(\.[0-9]+)?)`, in: []string{"."}, files: []string{"*.go", "*.yml", "README.md"},
				unless: func(m []string) bool { return sections[m[2]] }, plant: `// the journal's layout (DESIGN.md §99)`}}},
		{"Code cites DESIGN.md, not ROADMAP items", "", "ROADMAP's item numbers churn at each re-anchor, while a cited DESIGN.md § is checked to exist; bench/ keeps its frozen citations", []archClause{
			{re: `ROADMAP item`, in: []string{"."}, files: []string{"*.go", "DESIGN.md"}, outside: []string{"bench"}, plant: `// the kill window of ROADMAP item 1(c)`}}},
	}
}

// TestArchitecture walks the module as grep -r does and reports each line
// a rule flags. A pattern that does not compile, a path that is gone or a
// plant not flagged fails too: no rule passes by matching nothing. Each
// file is read once, and a clause looks only at the files and lines that
// hold one of its needles.
func TestArchitecture(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^#+ §([0-9.]+) `).FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	var files []string
	text := map[string]string{}
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && p != "." && p != ".github" && d.Name()[0] == '.' {
			return filepath.SkipDir // .git, the benchmark's outputs, tools' state
		}
		if err == nil && !d.IsDir() && p != "architecture_test.go" { // its plants would match
			b, err := os.ReadFile(p)
			files, text[p] = append(files, p), string(b)
			return err
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range architecture(sections) {
		if r.design != "" && !sections[r.design] {
			t.Errorf("%s: DESIGN.md has no §%s heading", r.name, r.design)
		}
		for _, c := range r.clauses {
			re, err := regexp.Compile(c.re)
			if err != nil {
				t.Errorf("%s: %v", r.name, err)
				continue
			}
			tree, _ := syntax.Parse(c.re, syntax.Perl) // regexp.Compile just parsed it so
			needles := needles(tree)
			for _, p := range slices.Concat(c.in, c.outside) {
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s: %v", r.name, err)
				}
			}
			if !c.flags(re, needles, c.plant) {
				t.Errorf("%s: its plant %q is not flagged by %s", r.name, c.plant, c.re)
			}
			for _, p := range files {
				if !c.covers(p) || !holds(text[p], needles) {
					continue
				}
				for i, l := range strings.Split(text[p], "\n") {
					if c.flags(re, needles, l) {
						t.Errorf("%s:%d: %s  [%s: %s]", p, i+1, strings.TrimSpace(l), r.name, r.why)
					}
				}
			}
		}
	}
}

// needles returns literals one of which every match of re contains, or
// nil when it knows none: a concatenation's most selective part, an
// alternation's branches together, and nothing under *, ? or case folding.
func needles(re *syntax.Regexp) []string {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase == 0 {
			return []string{string(re.Rune)}
		}
	case syntax.OpCapture, syntax.OpPlus:
		return needles(re.Sub[0])
	case syntax.OpRepeat:
		if re.Min > 0 {
			return needles(re.Sub[0])
		}
	case syntax.OpConcat:
		shortest := func(ns []string) int {
			return len(slices.MinFunc(ns, func(a, b string) int { return len(a) - len(b) }))
		}
		var best []string
		for _, sub := range re.Sub {
			if ns := needles(sub); ns != nil && (best == nil || shortest(ns) > shortest(best)) {
				best = ns
			}
		}
		return best
	case syntax.OpAlternate:
		var all []string
		for _, sub := range re.Sub {
			ns := needles(sub)
			if ns == nil {
				return nil
			}
			all = append(all, ns...)
		}
		return all
	}
	return nil
}

// holds reports whether s contains one of the needles; nil holds anything.
func holds(s string, needles []string) bool {
	return needles == nil || slices.ContainsFunc(needles, func(n string) bool { return strings.Contains(s, n) })
}

func (c archClause) covers(p string) bool {
	ok := false
	for _, g := range c.files {
		m, _ := filepath.Match(strings.TrimPrefix(g, "-"), filepath.Base(p))
		if m && g[0] == '-' {
			return false
		}
		ok = ok || m
	}
	return ok && under(p, c.in) && !under(p, c.outside)
}

func under(p string, paths []string) bool {
	return slices.ContainsFunc(paths, func(d string) bool { return d == "." || p == d || strings.HasPrefix(p, d+"/") })
}

func (c archClause) flags(re *regexp.Regexp, needles []string, line string) bool {
	if !holds(line, needles) || !re.MatchString(line) || c.code && strings.HasPrefix(strings.TrimSpace(line), "//") {
		return false
	}
	return slices.ContainsFunc(re.FindAllStringSubmatch(line, -1), func(m []string) bool { return c.unless == nil || !c.unless(m) })
}
