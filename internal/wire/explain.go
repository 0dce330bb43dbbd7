package wire

import (
	"fmt"
	"strconv"

	"visibility"
)

// ExplainResult is the body of an explain response: the resolved region,
// the provenance of the task's incoming edges and, when the query named a
// source task, the mustPrecede verdict for that (src, task) pair.
type ExplainResult struct {
	Region      string                  `json:"region"`
	Explain     *visibility.TaskExplain `json:"explain"`
	Src         int                     `json:"src"`
	MustPrecede bool                    `json:"mustPrecede"`
}

// AppendExplain appends v to dst, byte for byte what encoding/json's
// Encoder writes of a map with its keys, newline included. A negative Src
// is a query that named no source: src and mustPrecede are left out.
func AppendExplain(dst []byte, v *ExplainResult) []byte {
	f := explainFields
	if v.Src < 0 {
		f = fields[ExplainResult]{f[0], f[2]} // explain, region
	}
	out, _ := encode(dst, v, f) // no float: nothing to refuse
	return append(out, '\n')
}

// ParseExplain reads a body AppendExplain wrote. Without src and
// mustPrecede both stay zero, as encoding/json leaves them. The body is
// copied once, and every string without an escape is a window of that
// copy: a name the body repeats costs no allocation.
func ParseExplain(data []byte) (*ExplainResult, error) {
	s, v := &scanner{b: data, text: string(data)}, new(ExplainResult)
	explainFields.read(s, v)
	if err := s.end(); err != nil {
		return nil, fmt.Errorf("wire: decoding explain: %w", err)
	}
	return v, nil
}

var explainFields = fields[ExplainResult]{
	{"explain", func(s *scanner, v *ExplainResult) {
		if !s.null() {
			v.Explain = new(visibility.TaskExplain)
			taskExplainFields.read(s, v.Explain)
		}
	}, func(e *encoder, v *ExplainResult) { taskExplainFields.write(e, v.Explain) }, nil},
	{"mustPrecede", func(s *scanner, v *ExplainResult) { s.bool(&v.MustPrecede) },
		func(e *encoder, v *ExplainResult) { e.b = strconv.AppendBool(e.b, v.MustPrecede) }, nil},
	stringKey("region", false, func(v *ExplainResult) *string { return &v.Region }),
	intKey("src", func(v *ExplainResult) *int { return &v.Src }),
}

var taskExplainFields = fields[visibility.TaskExplain]{
	intKey("task", func(t *visibility.TaskExplain) *int { return &t.Task }),
	stringKey("name", false, func(t *visibility.TaskExplain) *string { return &t.Name }),
	{"edges", func(s *scanner, t *visibility.TaskExplain) { array(s, &t.Edges, edgeExplainFields.read) },
		func(e *encoder, t *visibility.TaskExplain) { list(e, t.Edges, edgeExplainFields.write) }, nil},
}

var edgeExplainFields = fields[visibility.EdgeExplain]{
	intKey("src", func(x *visibility.EdgeExplain) *int { return &x.Src }),
	stringKey("srcName", false, func(x *visibility.EdgeExplain) *string { return &x.SrcName }),
	intKey("dst", func(x *visibility.EdgeExplain) *int { return &x.Dst }),
	stringKey("dstName", false, func(x *visibility.EdgeExplain) *string { return &x.DstName }),
	stringKey("kind", false, func(x *visibility.EdgeExplain) *string { return &x.Kind }),
	intKey("srcReq", func(x *visibility.EdgeExplain) *int { return &x.SrcReq }),
	intKey("dstReq", func(x *visibility.EdgeExplain) *int { return &x.DstReq }),
	stringKey("field", true, func(x *visibility.EdgeExplain) *string { return &x.Field }),
	stringKey("srcPriv", true, func(x *visibility.EdgeExplain) *string { return &x.SrcPriv }),
	stringKey("dstPriv", true, func(x *visibility.EdgeExplain) *string { return &x.DstPriv }),
	stringKey("overlap", true, func(x *visibility.EdgeExplain) *string { return &x.Overlap }),
}
