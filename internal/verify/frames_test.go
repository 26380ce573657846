package verify

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/fstest"
)

// planted is a small two-sublayer package: A and B are sublayers, Conn
// wires them, Stack is per-host state.
const planted = `package p

import "repro/internal/metrics"

type Stack struct{ conns int }

type Peer interface{ poke() }

type counters struct{ n metrics.Counter }

type Conn struct {
	stack *Stack
	a     A
	b     *B
	peer  Peer
	m     metrics.Counter
	c     counters
	cb    func()
	read  []byte
}

type A struct {
	conn *Conn
	x, y int
	buf  []byte
	q    queue
}

type B struct {
	conn *Conn
	z    int
}

type queue struct{ n int }

func (q *queue) push() { q.n++ }

func (a *A) poke() {}

func (c *Conn) glue() { c.read = nil }

func (a *A) assign()  { a.x = 1 }
func (a *A) incr()    { a.y++ }
func (a *A) addr()    { _ = &a.buf }
func (a *A) operand() { a.q.push() }
func (a *A) read() int { return a.x + a.y }

func (a *A) send() {
	a.conn.b.recv()
	a.conn.peer.poke()
	a.conn.glue()
}

func (b *B) recv() { b.z++ }

func (a *A) plumbing() {
	a.conn.m.Inc()
	a.conn.c.n.Inc()
	a.conn.stack.conns++
	a.conn.cb()
	a.conn.peer = nil
	a.conn.read = nil
}

func (b *B) own() { b.z = 2 }
`

var plantedScope = Scope{
	State:     []string{"Conn", "A", "B"},
	Host:      []string{"Stack"},
	Sublayers: []string{"A", "B"},
}

func loadPlanted(t *testing.T, extra string) *Source {
	t.Helper()
	fsys := fstest.MapFS{
		"p/p.go":      {Data: []byte(planted + extra)},
		"p/p_test.go": {Data: []byte("package p\n\nfunc (a *A) fromTest() { _ = a.conn.b.z }\n")},
	}
	src, err := Load(fsys, "p", plantedScope)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func frames(t *testing.T, src *Source, handlers ...string) *Frames {
	t.Helper()
	f, err := src.Frames(handlers)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCrossSublayerNamesFileAndLine(t *testing.T) {
	if got := loadPlanted(t, "").CrossSublayer(); len(got) != 0 {
		t.Fatalf("clean package: %v", got)
	}
	got := loadPlanted(t, "\nfunc (a *A) peek() int { return a.conn.b.z }\n").CrossSublayer()
	line := strings.Count(planted, "\n") + 2
	if want := []string{fmt.Sprintf("p/p.go:%d B.z", line)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("CrossSublayer = %v, want %v", got, want)
	}
}

func TestCallsNamesFileAndLine(t *testing.T) {
	// A.send calls B's method and an interface method; its call of
	// Conn's glue, and A's calls of its own methods, are no edges.
	line := strings.Count(planted[:strings.Index(planted, "a.conn.b.recv()")], "\n") + 1
	want := []string{fmt.Sprintf("p/p.go:%d A B.recv", line), fmt.Sprintf("p/p.go:%d A Peer.poke", line+1)}
	if got := loadPlanted(t, "").Calls(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Calls = %v, want %v", got, want)
	}
	got := loadPlanted(t, "\nfunc (b *B) back() { b.conn.a.assign() }\n").Calls()
	if want := fmt.Sprintf("p/p.go:%d B A.assign", strings.Count(planted, "\n")+2); got[len(got)-1] != want {
		t.Fatalf("Calls = %v, want a last %q", got, want)
	}
}

func TestFramesWrites(t *testing.T) {
	f := frames(t, loadPlanted(t, ""), "A.assign", "A.incr", "A.addr", "A.operand", "A.read")
	for h, v := range map[string]string{"A.assign": "A.x", "A.incr": "A.y", "A.addr": "A.buf", "A.operand": "A.q"} {
		if want := map[string]bool{v: true}; !reflect.DeepEqual(f.frame[h], want) {
			t.Errorf("%s: frame %v, want %v", h, f.frame[h], want)
		}
	}
	if want := map[string]bool{"A.x": false, "A.y": false}; !reflect.DeepEqual(f.frame["A.read"], want) {
		t.Errorf("A.read: frame %v, want reads of A.x and A.y only", f.frame["A.read"])
	}
}

func TestFramesStopAtEdges(t *testing.T) {
	f := frames(t, loadPlanted(t, ""), "A.send")
	if want := []string{"B.recv", "Peer.poke"}; !reflect.DeepEqual(f.Edges(), want) {
		t.Errorf("edges = %v, want %v", f.Edges(), want)
	}
	// Conn's glue is followed; B's method is not.
	if want := map[string]bool{"Conn.read": true}; !reflect.DeepEqual(f.frame["A.send"], want) {
		t.Errorf("frame = %v, want %v", f.frame["A.send"], want)
	}
}

func TestFramesSkipNavigationAndInstruments(t *testing.T) {
	f := frames(t, loadPlanted(t, ""), "A.plumbing")
	if want := map[string]bool{"Conn.read": true}; !reflect.DeepEqual(f.frame["A.plumbing"], want) {
		t.Errorf("variables = %v, want only %v", f.frame["A.plumbing"], want)
	}
}

func TestFramesDisjointStateNoInteraction(t *testing.T) {
	e := frames(t, loadPlanted(t, ""), "A.assign", "A.incr", "B.own").Entanglement()
	if e.Handlers != 3 || e.Vars != 3 || e.MaxPairs != 3 {
		t.Fatalf("entanglement = %+v", e)
	}
	if e.InteractionPairs != 0 || e.SharedVars != 0 {
		t.Errorf("disjoint state: %d pairs, %d shared vars, want 0", e.InteractionPairs, e.SharedVars)
	}
}

func TestFramesOneSharedVariable(t *testing.T) {
	f := frames(t, loadPlanted(t, ""), "A.assign", "A.read", "B.own")
	e := f.Entanglement()
	// A.x is shared by assign and read, and written by assign alone.
	if e.InteractionPairs != 1 || e.SharedVars != 1 || e.WriteShared != 0 {
		t.Errorf("entanglement = %+v, want 1 pair, 1 shared var, 0 multi-writer", e)
	}
	b := f.Blast("A.x")
	if !reflect.DeepEqual(b.Handlers, []string{"A.assign", "A.read"}) || !reflect.DeepEqual(b.CoTouched, []string{"A.y"}) {
		t.Errorf("blast = %+v", b)
	}
}

func TestFramesUnknownHandler(t *testing.T) {
	if _, err := loadPlanted(t, "").Frames([]string{"A.missing"}); err == nil {
		t.Error("unknown handler accepted")
	}
}
