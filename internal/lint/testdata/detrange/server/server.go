// Package server pins the one bug a determinism pass ever found in this
// module (PR 6): the session table listed in map order, so janitor expiry
// and metrics merging emitted recorder events in a different order run to
// run. The package is outside every list the old rule kept.
package server

import "sort"

type session struct{ id string }

type Server struct {
	sessions map[string]*session
}

// sessionList as it was before PR 6.
func (srv *Server) sessionList() []*session {
	out := make([]*session, 0, len(srv.sessions))
	for _, s := range srv.sessions { // want `range over map srv.sessions appends to out with no sort of it later`
		out = append(out, s)
	}
	return out
}

// sessionListSorted is the fix: the same loop with a trailing sort.
func (srv *Server) sessionListSorted() []*session {
	out := make([]*session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// sortedBefore sorts the wrong thing at the wrong time.
func (srv *Server) sortedBefore(out []string) []string {
	sort.Strings(out)
	for id := range srv.sessions { // want `appends to out with no sort of it later`
		out = append(out, id)
	}
	return out
}

// snapshot copies a map into a map; byID and count are order-insensitive
// too, and outside the hot paths they need no proof.
func (srv *Server) snapshot() (map[string]*session, int) {
	out := make(map[string]*session, len(srv.sessions))
	n := 0
	for id, s := range srv.sessions {
		out[id] = s
		n += len(id)
	}
	return out, n
}

func (srv *Server) describe() (string, float64) {
	text, load := "", 0.0
	for id := range srv.sessions { // want `accumulates the string text`
		text += id + ","
	}
	for id := range srv.sessions { // want `accumulates the float64 load`
		load += float64(len(id)) * 0.1
	}
	return text, load
}
