package wallet_test

import (
	"testing"

	"drbac/internal/logstore"
	"drbac/internal/wallet"
)

// TestServedProofsValidateInFull runs the served-proof histories over a
// durable log store, so a reopen replays every bundle, support proofs
// included, from decoded records.
func TestServedProofsValidateInFull(t *testing.T) {
	wallet.ServedProofs(t, func(t *testing.T, dir string) (wallet.Store, func()) {
		s, err := logstore.Open(dir, logstore.Options{CompactInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		return s, func() { _ = s.Close() }
	})
}
