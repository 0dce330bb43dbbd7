// Package autotrace seeds the other map-order shape: every value is
// deterministic, but one sink event is emitted per iteration, so the
// emitted sequence follows map order. Flight-recorder dumps and encoded
// streams are compared as ordered bytes.
package autotrace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

type Recorder struct{}

func (*Recorder) Log(kind uint8, a, b int64) {}

type detector struct {
	rec       *Recorder
	instances map[int]int64
}

func (d *detector) abort() {
	for id, n := range d.instances { // want `range over map d.instances calls the sink Log`
		d.rec.Log(1, int64(id), n)
	}
}

func (d *detector) dump(w io.Writer, b *strings.Builder) {
	for id := range d.instances { // want `calls the sink Fprintf`
		fmt.Fprintf(w, "%d\n", id)
	}
	for id := range d.instances { // want `calls the sink WriteString`
		if id > 0 {
			b.WriteString("x")
		}
	}
}

// A sort cannot repair an emission: the collect-then-sort exemption covers
// appends only.
func (d *detector) abortAndList() []int {
	var ids []int
	for id, n := range d.instances { // want `calls the sink Log`
		ids = append(ids, id)
		d.rec.Log(1, int64(id), n)
	}
	sort.Ints(ids)
	return ids
}

// abortSorted is the fix.
func (d *detector) abortSorted() {
	ids := make([]int, 0, len(d.instances))
	for id := range d.instances {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		d.rec.Log(1, int64(id), d.instances[id])
	}
}
