package atmostonce

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
	}
}

// TestArchitecture walks the module as grep -r does and reports each line
// a rule flags. A pattern that does not compile, a path that is gone or a
// plant not flagged fails too: no rule passes by matching nothing.
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
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && p != "." && p != ".github" && d.Name()[0] == '.' {
			return filepath.SkipDir // .git, the benchmark's outputs, tools' state
		}
		if err == nil && !d.IsDir() && p != "architecture_test.go" { // its plants would match
			files = append(files, p)
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
			for _, p := range slices.Concat(c.in, c.outside) {
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s: %v", r.name, err)
				}
			}
			if !c.flags(re, c.plant) {
				t.Errorf("%s: its plant %q is not flagged by %s", r.name, c.plant, c.re)
			}
			for _, p := range files {
				if !c.covers(p) {
					continue
				}
				b, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				for i, l := range strings.Split(string(b), "\n") {
					if c.flags(re, l) {
						t.Errorf("%s:%d: %s  [%s: %s]", p, i+1, strings.TrimSpace(l), r.name, r.why)
					}
				}
			}
		}
	}
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

func (c archClause) flags(re *regexp.Regexp, line string) bool {
	if !re.MatchString(line) || c.code && strings.HasPrefix(strings.TrimSpace(line), "//") {
		return false
	}
	return slices.ContainsFunc(re.FindAllStringSubmatch(line, -1), func(m []string) bool { return c.unless == nil || !c.unless(m) })
}
