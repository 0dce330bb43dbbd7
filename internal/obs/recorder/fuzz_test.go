package recorder

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadDump throws arbitrary bytes at the dump reader — the decode
// boundary behind visserve's crash dumps and /debug/recorder. It never
// panics, and a dump it accepts is exactly what Dump writes back for the
// events and dropped count it returned (trailing bytes are not read).
func FuzzReadDump(f *testing.F) {
	r := NewClock(3, tick())
	for i := int64(0); i < 5; i++ {
		r.Log(KindJobStart+Kind(i), i, -i)
	}
	var good bytes.Buffer
	if err := r.Dump(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-5])
	f.Add([]byte("VIS"))
	f.Add([]byte("not a dump at all, but long enough for a header"))
	// A 24-byte header that claims the largest admissible count made the
	// reader allocate 512 MB before it looked for the first event.
	huge := append([]byte{}, dumpMagic[:]...)
	huge = binary.LittleEndian.AppendUint64(huge, 0)
	huge = binary.LittleEndian.AppendUint64(huge, 1<<24)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		events, dropped, err := ReadDump(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := (&Recorder{ring: events, dropped: dropped}).Dump(&again); err != nil {
			t.Fatal(err)
		}
		if n := again.Len(); n > len(data) || !bytes.Equal(again.Bytes(), data[:n]) {
			t.Fatalf("Dump of the %d accepted events is not the input's first %d bytes", len(events), n)
		}
	})
}
