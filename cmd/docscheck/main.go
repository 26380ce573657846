// Command docscheck is the repository's offline markdown checker: it
// validates every link, every `make <target>` mention and every
// repository path in a code span in the given markdown files without
// touching the network, so CI's docs job stays deterministic.
//
//	go run ./cmd/docscheck                 # walk mode: every tracked doc
//	go run ./cmd/docscheck README.md docs/OVERLAYS.md
//
// With no arguments docscheck walks the repository for the user-facing
// doc set: every *.md at the root (except the growth driver's working
// files — ISSUE.md and the paper digests — which are rewritten per
// PR), everything under docs/, and each example's README.md — so
// adding a doc or an example makes it checked without touching the
// Makefile.
//
// Checked per file, outside fenced code blocks:
//
//   - relative links must point at a file or directory that exists
//     (resolved against the markdown file's own directory);
//   - fragment links — `#anchor` alone or `file.md#anchor` — must match
//     a heading in the target file, using GitHub's anchor derivation
//     (lowercase, spaces to hyphens, punctuation dropped), including
//     the "-1", "-2" suffixes GitHub appends to repeated headings;
//   - absolute URLs (http/https/mailto) are counted but not fetched.
//
// And per file, fenced blocks included: a `make <target> ...` inside a
// code span, or starting a fenced line, must name targets the
// Makefile's .PHONY line declares — so a deleted target cannot survive
// in prose. Likewise a code span that begins internal/, cmd/,
// examples/, bench/ or docs/ must name something in the tree: its
// first word, less a trailing "/" or ".Symbol", is a path from the
// repository root — so a deleted package cannot survive in prose
// either. And a command named anywhere else — `go run ./cmd/x` in a
// span or a fenced line, cmd/x in prose or a layout listing — must be
// a directory under cmd/, so a deleted command cannot either. And a
// `go test` command, in a span or starting a fenced line, must run
// something: each -run or -bench pattern it gives must match a Test or
// Fuzz, or a Benchmark, function in the package directories it names
// (default "."), so a command that prints "[no test files]" or "no
// tests to run" cannot survive in prose. The history files
// (CHANGES.md, ROADMAP.md) record targets and paths that no longer
// exist on purpose and are exempt from these four checks.
//
// Exit status 1 lists every broken link, stale target, stale path and
// empty test command; 0 means all resolve.
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

var (
	linkRe  = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)
	fenceRe = regexp.MustCompile("^(```|~~~)")
	headRe  = regexp.MustCompile(`^#{1,6}\s+(.+?)\s*$`)
	// anchorDropRe removes everything GitHub drops when slugging a
	// heading: anything that is not a letter, digit, space, or hyphen.
	anchorDropRe = regexp.MustCompile(`[^\p{L}\p{N} \-]`)
	// A make invocation in a code span, and one starting a line of a
	// fenced block; the capture is its argument list.
	makeSpanRe = regexp.MustCompile("`make\\s+([^`]+)`")
	makeLineRe = regexp.MustCompile(`^\s*make\s+(.+)$`)
	// A code span that begins with one of the tree's top-level source
	// directories; the capture is the whole span.
	pathSpanRe = regexp.MustCompile("`((?:internal|cmd|examples|bench|docs)/[^`]*)`")
	// A command path that is not the start of a code span (pathSpanRe
	// has those): cmd/x or ./cmd/x at a line start or after a space or
	// parenthesis. The capture is cmd/x.
	cmdRe = regexp.MustCompile(`(?:^|[\s(])(?:\./)?(cmd/[\w-]+)`)
	// A go test invocation in a code span, and one starting a line of a
	// fenced block; the capture is its argument list.
	goTestSpanRe = regexp.MustCompile("`go\\s+test\\s+([^`]+)`")
	goTestLineRe = regexp.MustCompile(`^\s*go\s+test\s+(.+)$`)
	// testFuncRe finds the top-level test functions of a _test.go file.
	testFuncRe = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// historyFiles keep `make` targets and paths that were since deleted:
// that is what a history is for.
var historyFiles = map[string]bool{"CHANGES.md": true, "ROADMAP.md": true}

func main() {
	problems, checked, err := check(".", os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problems in %s\n", len(problems), checked)
		os.Exit(1)
	}
	fmt.Printf("docscheck: %s ok\n", checked)
}

// check validates files (or, when empty, the default doc set under
// root) against the tree and the Makefile at root. It returns one
// line per problem and a summary of what was looked at.
func check(root string, files []string) (problems []string, checked string, err error) {
	if len(files) == 0 {
		if files, err = walkDocs(root); err != nil {
			return nil, "", err
		}
	}
	targets, err := phonyTargets(filepath.Join(root, "Makefile"))
	if err != nil {
		return nil, "", err
	}
	links, mentions, paths, tests := 0, 0, 0, 0
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		for _, l := range linksOf(string(raw)) {
			links++
			if err := checkLink(path, l.target); err != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: broken link %q: %v", path, l.line, l.target, err))
			}
		}
		if historyFiles[filepath.Base(path)] {
			continue
		}
		for _, m := range makeTargetsOf(string(raw)) {
			mentions++
			if !targets[m.target] {
				problems = append(problems, fmt.Sprintf("%s:%d: `make %s`: the Makefile's .PHONY declares no such target", path, m.line, m.target))
			}
		}
		for _, p := range pathSpansOf(string(raw)) {
			paths++
			if !inTree(root, p.target) {
				problems = append(problems, fmt.Sprintf("%s:%d: `%s`: no such path in the tree", path, p.line, p.target))
			}
		}
		for _, c := range commandsOf(string(raw)) {
			paths++
			if !inTree(root, c.target) {
				problems = append(problems, fmt.Sprintf("%s:%d: %s: no such command in the tree", path, c.line, c.target))
			}
		}
		for _, g := range goTestsOf(string(raw)) {
			tests++
			if err := g.resolve(root); err != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: `go test %s`: %v", path, g.line, g.args, err))
			}
		}
	}
	return problems, fmt.Sprintf("%d links, %d make targets, %d paths and %d go test commands across %d files",
		links, mentions, paths, tests, len(files)), nil
}

// goTest is one `go test` command a doc quotes: the package
// directories it names and its -run and -bench patterns.
type goTest struct {
	line     int
	args     string
	pkgs     []string // "." when none are given
	patterns []testPattern
}

// testPattern is one -run or -bench value.
type testPattern struct {
	flag, re string
}

// boolTestFlags are the go test and build flags that take no value.
var boolTestFlags = map[string]bool{
	"a": true, "asan": true, "benchmem": true, "cover": true, "failfast": true, "fullpath": true,
	"json": true, "linkshared": true, "modcacherw": true, "msan": true, "n": true, "race": true,
	"short": true, "trimpath": true, "v": true, "work": true, "x": true,
}

// goTestsOf extracts every `go test ...` invocation. Quotes around an
// argument are dropped, a shell operator ends the command, and flags
// other than -run and -bench are skipped with their values. A flag
// written without "=" takes the next argument as its value unless it
// takes none or that argument is itself a flag.
func goTestsOf(doc string) []goTest {
	var out []goTest
	for _, c := range invocations(doc, goTestSpanRe, goTestLineRe) {
		g := goTest{line: c.line, args: c.target}
		fields := strings.Fields(c.target)
		for j := 0; j < len(fields); j++ {
			arg := strings.Trim(fields[j], `'"`)
			if arg == "&&" || arg == "|" || arg == ";" {
				break
			}
			if !strings.HasPrefix(arg, "-") {
				g.pkgs = append(g.pkgs, arg)
				continue
			}
			name, value, hasValue := strings.Cut(strings.TrimLeft(arg, "-"), "=")
			if !hasValue && !boolTestFlags[name] && j+1 < len(fields) && !strings.HasPrefix(fields[j+1], "-") {
				j++
				value = strings.Trim(fields[j], `'"`)
			}
			if name == "run" || name == "bench" {
				g.patterns = append(g.patterns, testPattern{name, value})
			}
		}
		if len(g.pkgs) == 0 {
			g.pkgs = []string{"."}
		}
		out = append(out, g)
	}
	return out
}

// resolve checks that every pattern of g selects at least one function
// in g's package directories under root: -bench among benchmarks, -run
// among tests and fuzz targets. A pattern that matches the empty
// string ("^$", "-run=") selects nothing on purpose and is not checked;
// only its first "/"-separated element, the top-level name, is.
func (g goTest) resolve(root string) error {
	if len(g.patterns) == 0 {
		return nil
	}
	var funcs []string
	for _, p := range g.pkgs {
		names, err := testFuncs(filepath.Join(root, p))
		if err != nil {
			return fmt.Errorf("no package %s", p)
		}
		funcs = append(funcs, names...)
	}
	for _, p := range g.patterns {
		top, _, _ := strings.Cut(p.re, "/")
		re, err := regexp.Compile(top)
		if err != nil {
			return fmt.Errorf("-%s %q: %v", p.flag, p.re, err)
		}
		if re.MatchString("") {
			continue
		}
		found := false
		for _, f := range funcs {
			found = found || (p.flag == "bench") == strings.HasPrefix(f, "Benchmark") && re.MatchString(f)
		}
		if !found {
			return fmt.Errorf("-%s %q matches no test function in %s", p.flag, p.re, strings.Join(g.pkgs, " "))
		}
	}
	return nil
}

// testFuncs lists the top-level test, benchmark and fuzz functions
// declared in the _test.go files of dir.
func testFuncs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, d := range entries {
		if d.IsDir() || !strings.HasSuffix(d.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, d.Name()))
		if err != nil {
			return nil, err
		}
		for _, m := range testFuncRe.FindAllStringSubmatch(string(src), -1) {
			out = append(out, m[1])
		}
	}
	return out, nil
}

// pathSpansOf extracts the repository path each code span names: the
// span's first word, for spans that begin with a top-level source
// directory.
func pathSpansOf(doc string) []link {
	var out []link
	for i, line := range strings.Split(doc, "\n") {
		for _, m := range pathSpanRe.FindAllStringSubmatch(line, -1) {
			out = append(out, link{line: i + 1, target: strings.Fields(m[1])[0]})
		}
	}
	return out
}

// commandsOf extracts every cmd/<x> a doc names outside the start of
// a code span, fenced blocks included.
func commandsOf(doc string) []link {
	var out []link
	for i, line := range strings.Split(doc, "\n") {
		for _, m := range cmdRe.FindAllStringSubmatch(line, -1) {
			out = append(out, link{line: i + 1, target: m[1]})
		}
	}
	return out
}

// inTree reports whether p names a file or directory under root, as
// written or once a trailing "/" or a ".Symbol" after the last path
// element (`internal/sublayer.Stack`) is dropped.
func inTree(root, p string) bool {
	p = strings.TrimSuffix(p, "/")
	if _, err := os.Stat(filepath.Join(root, p)); err == nil {
		return true
	}
	dir, last := filepath.Split(p)
	pkg, _, isSymbol := strings.Cut(last, ".")
	if !isSymbol {
		return false
	}
	_, err := os.Stat(filepath.Join(root, dir, pkg))
	return err == nil
}

// phonyTargets reads the target names the Makefile declares .PHONY.
func phonyTargets(makefile string) (map[string]bool, error) {
	raw, err := os.ReadFile(makefile)
	if err != nil {
		return nil, err
	}
	targets := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			for _, t := range strings.Fields(rest) {
				targets[t] = true
			}
		}
	}
	return targets, nil
}

// invocations extracts the argument list, with its line, of every
// command a doc writes out: in a code span spanRe matches anywhere, or
// on a line inside a fenced block that lineRe matches. A trailing shell
// comment ends the command.
func invocations(doc string, spanRe, lineRe *regexp.Regexp) []link {
	var out []link
	inFence := false
	for i, line := range strings.Split(doc, "\n") {
		if fenceRe.MatchString(strings.TrimSpace(line)) {
			inFence = !inFence
			continue
		}
		var cmds []string
		for _, m := range spanRe.FindAllStringSubmatch(line, -1) {
			cmds = append(cmds, m[1])
		}
		if m := lineRe.FindStringSubmatch(line); inFence && m != nil {
			cmds = append(cmds, m[1])
		}
		for _, args := range cmds {
			args, _, _ = strings.Cut(args, "#")
			out = append(out, link{line: i + 1, target: strings.TrimSpace(args)})
		}
	}
	return out
}

// makeTargetsOf extracts every target of every `make ...` invocation.
// Flags and VAR=value arguments are not targets.
func makeTargetsOf(doc string) []link {
	var out []link
	for _, c := range invocations(doc, makeSpanRe, makeLineRe) {
		for _, arg := range strings.Fields(c.target) {
			if !strings.HasPrefix(arg, "-") && !strings.Contains(arg, "=") {
				out = append(out, link{line: c.line, target: arg})
			}
		}
	}
	return out
}

// walkDocs collects the default doc set under root: root-level *.md
// minus ISSUE.md, every .md under docs/ recursively, and each
// examples/*/README.md. Sorted, so the report order is stable.
func walkDocs(root string) ([]string, error) {
	var files []string
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	// The growth driver rewrites its own working files (the issue, the
	// paper digests) every PR; they are inputs, not docs we maintain.
	driverOwned := map[string]bool{"ISSUE.md": true, "PAPER.md": true, "PAPERS.md": true, "SNIPPETS.md": true}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") && !driverOwned[e.Name()] {
			files = append(files, filepath.Join(root, e.Name()))
		}
	}
	docsDir := filepath.Join(root, "docs")
	if _, err := os.Stat(docsDir); err == nil {
		err := filepath.WalkDir(docsDir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(d.Name(), ".md") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	examples, _ := filepath.Glob(filepath.Join(root, "examples", "*", "README.md"))
	files = append(files, examples...)
	sort.Strings(files)
	return files, nil
}

type link struct {
	line   int
	target string
}

// linksOf extracts link targets with their line numbers, skipping
// fenced code blocks (trace excerpts are full of bracket-and-paren
// text that is not a link).
func linksOf(doc string) []link {
	var out []link
	inFence := false
	for i, line := range strings.Split(doc, "\n") {
		if fenceRe.MatchString(strings.TrimSpace(line)) {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			out = append(out, link{line: i + 1, target: m[1]})
		}
	}
	return out
}

// checkLink validates one target relative to the markdown file at from.
func checkLink(from, target string) error {
	switch {
	case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"),
		strings.HasPrefix(target, "mailto:"):
		return nil // external; not fetched offline
	case strings.HasPrefix(target, "#"):
		return checkAnchor(from, target[1:])
	}
	file, frag, _ := strings.Cut(target, "#")
	resolved := filepath.Join(filepath.Dir(from), file)
	if _, err := os.Stat(resolved); err != nil {
		return fmt.Errorf("no such file %s", resolved)
	}
	if frag != "" {
		return checkAnchor(resolved, frag)
	}
	return nil
}

// anchorCache memoizes per-file anchor sets: EXPERIMENTS.md is the
// fragment target of dozens of links and needn't be re-parsed for each.
var anchorCache = map[string]map[string]bool{}

// anchorsOf derives the file's full anchor set with GitHub's slug
// rules, including duplicate-heading disambiguation: the first
// "## Raw tables" slugs to raw-tables, the next to raw-tables-1, and
// so on, in document order.
func anchorsOf(path string) (map[string]bool, error) {
	if a, ok := anchorCache[path]; ok {
		return a, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	anchors := map[string]bool{}
	seen := map[string]int{}
	inFence := false
	for _, line := range strings.Split(string(raw), "\n") {
		if fenceRe.MatchString(strings.TrimSpace(line)) {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		if m := headRe.FindStringSubmatch(line); m != nil {
			s := slug(m[1])
			if n := seen[s]; n > 0 {
				anchors[fmt.Sprintf("%s-%d", s, n)] = true
			} else {
				anchors[s] = true
			}
			seen[s]++
		}
	}
	anchorCache[path] = anchors
	return anchors, nil
}

// checkAnchor verifies a #fragment against the headings of a markdown
// file.
func checkAnchor(path, frag string) error {
	anchors, err := anchorsOf(path)
	if err != nil {
		return err
	}
	if !anchors[frag] {
		return fmt.Errorf("no heading for #%s in %s", frag, path)
	}
	return nil
}

// slug is GitHub's heading-to-anchor derivation: strip markdown
// emphasis and code ticks, lowercase, drop punctuation, hyphenate
// spaces.
func slug(heading string) string {
	s := strings.NewReplacer("`", "", "*", "", "_", "").Replace(heading)
	s = strings.ToLower(s)
	s = anchorDropRe.ReplaceAllString(s, "")
	return strings.ReplaceAll(s, " ", "-")
}
