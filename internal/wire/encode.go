package wire

import (
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
)

// AppendWorkload appends wl's canonical form to dst: compact JSON and a
// newline, byte for byte what encoding/json's Encoder writes, errors
// included. Field order is fixed by the key tables and map keys sort, so a
// given workload has exactly one serialization.
func AppendWorkload(dst []byte, wl *Workload) ([]byte, error) {
	out, err := encode(dst, wl, workloadFields)
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Encode writes wl in the canonical form (AppendWorkload), what clients
// send and Decode is fastest on; the testdata files are its json.Indent.
func Encode(w io.Writer, wl *Workload) error {
	body, err := AppendWorkload(nil, wl)
	if err == nil {
		_, err = w.Write(body)
	}
	return err
}

// encoder is the writers' state: the bytes so far, the first error, and
// the specs written so far, so a spec a workload repeats is copied rather
// than written again. Encoders are pooled: appending into a buffer with
// room allocates nothing.
type encoder struct {
	b     []byte
	err   error
	specs []specText
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// encode appends v, as the writers of f write it, to dst.
func encode[T any](dst []byte, v *T, f fields[T]) ([]byte, error) {
	e := encoders.Get().(*encoder)
	e.b, e.err = dst, nil
	f.write(e, v)
	out, err := e.b, e.err
	clear(e.specs) // the pool keeps none of the caller's bytes
	e.b, e.specs = nil, e.specs[:0]
	encoders.Put(e)
	return out, err
}

// write appends v as encoding/json writes it: null for nil, else an object
// of the keys in table order, an omitempty field's only when its value is
// not empty. No key is written ahead of its value, so appending into a
// buffer of exactly the output's length never regrows it.
func (f fields[T]) write(e *encoder, v *T) {
	if v == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '{')
	open := len(e.b)
	for _, fl := range f {
		if fl.empty != nil && fl.empty(v) {
			continue
		}
		if len(e.b) > open {
			e.b = append(e.b, ',')
		}
		e.b = append(append(append(e.b, '"'), fl.key...), '"', ':')
		fl.write(e, v)
	}
	e.b = append(e.b, '}')
}

// The writers mirror the scanner's readers: each appends one value.

func (e *encoder) string(s string) { e.b = appendString(e.b, s) }
func (e *encoder) int(n int)       { e.b = strconv.AppendInt(e.b, int64(n), 10) }

func (e *encoder) rows(rows *[][]int64) {
	list(e, *rows, func(e *encoder, row *[]int64) {
		list(e, *row, func(e *encoder, v *int64) { e.b = strconv.AppendInt(e.b, *v, 10) })
	})
}

// arg appends a function argument; JSON has no form for a NaN or an
// infinity, and the error is encoding/json's.
func (e *encoder) arg(v float64) {
	if (math.IsInf(v, 0) || math.IsNaN(v)) && e.err == nil {
		e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
	}
	e.b = appendFloat(e.b, v)
}

func (e *encoder) spec(f *FuncSpec) {
	for _, w := range e.specs {
		if w.spec == f {
			e.b = append(e.b, w.text...)
			return
		}
	}
	start := len(e.b)
	funcSpecFields.write(e, f)
	if len(e.specs) < maxSpecs {
		e.specs = append(e.specs, specText{f, e.b[start:]})
	}
}

// list appends a slice as an array, null when nil.
func list[T any](e *encoder, v []T, elem func(*encoder, *T)) {
	if v == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i := range v {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		elem(e, &v[i])
	}
	e.b = append(e.b, ']')
}

// object appends a map as an object with sorted keys. Every map in the
// format is omitempty, so none reaches it empty.
func object[V any](e *encoder, m map[string]V, value func(*encoder, V)) {
	var stack [8]string // room for every builtin's arguments
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.b = append(e.b, '{')
	for i, k := range keys {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = append(appendString(e.b, k), ':')
		value(e, m[k])
	}
	e.b = append(e.b, '}')
}
