package service

// Saturate holds every worker slot and queue place of s, as in-flight
// Share-Signs would, so that the next signing request is shed. The
// returned function frees them. It serves tests outside the package that
// need a saturated signer.
func Saturate(s *Signer) (release func()) {
	for i := 0; i < s.cfg.MaxWorkers; i++ {
		s.workers <- struct{}{}
	}
	held := int64(s.cfg.MaxWorkers + s.cfg.MaxQueue)
	s.inflight.Add(held)
	return func() {
		for i := 0; i < s.cfg.MaxWorkers; i++ {
			<-s.workers
		}
		s.inflight.Add(-held)
	}
}
