package server

// SetScribbleReleased turns the aliasing guard on or off. Call it only
// while no server of this process is running.
func SetScribbleReleased(on bool) { scribbleReleased = on }

// HeldNotes sums over s's connections the notifications a notifier has
// encoded but not yet written — what a write blocked on a stalled
// reader holds, and no stats field counts.
func (s *Server) HeldNotes() uint64 {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	var n uint64
	for c := range s.conns {
		n += c.held.Load()
	}
	return n
}
