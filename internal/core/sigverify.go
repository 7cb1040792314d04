package core

// SigVerifier abstracts Ed25519 signature verification so callers can
// interpose a memo (internal/sigcache): delegations are immutable, so a
// triple that verified once verifies forever. A nil SigVerifier anywhere it
// is accepted means direct, unmemoized verification.
type SigVerifier interface {
	// VerifySig reports whether sig is a valid signature over msg by the
	// public key pub.
	VerifySig(pub, msg, sig []byte) bool
}
