package prog

// ForgetFingerprint clears p's Fingerprint memo, so external tests and
// benchmarks can time and count a first call.
func ForgetFingerprint(p *Program) { p.fp.Store(nil) }
