package wallet_test

import (
	"testing"

	"drbac/internal/logstore"
	"drbac/internal/wallet"
)

// TestCommitOnePathLogStore runs the commit table over a durable log store.
func TestCommitOnePathLogStore(t *testing.T) {
	wallet.CommitTable(t, func(t *testing.T) wallet.Store {
		s, err := logstore.Open(t.TempDir(), logstore.Options{CompactInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	})
}
