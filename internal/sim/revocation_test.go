package sim

import (
	"testing"
)

func revocationParams() RevocationParams {
	return RevocationParams{
		Clients:     4,
		Credentials: 8,
		Steps:       100,
		PollEvery:   5,
		CRLEvery:    10,
		RevokeAt:    []int{20, 50},
	}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*RevocationParams)
		wantErr bool
	}{
		{"valid", func(*RevocationParams) {}, false},
		{"zero clients", func(p *RevocationParams) { p.Clients = 0 }, true},
		{"zero credentials", func(p *RevocationParams) { p.Credentials = 0 }, true},
		{"zero steps", func(p *RevocationParams) { p.Steps = 0 }, true},
		{"zero poll", func(p *RevocationParams) { p.PollEvery = 0 }, true},
		{"zero crl", func(p *RevocationParams) { p.CRLEvery = 0 }, true},
		{"too many revocations", func(p *RevocationParams) { p.RevokeAt = make([]int, 100) }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := revocationParams()
			tt.mutate(&p)
			err := p.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestRunUnknownScheme(t *testing.T) {
	if _, err := RunRevocationScheme("carrier-pigeon", revocationParams()); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestAllSchemesDeliverAllNotifications(t *testing.T) {
	p := revocationParams()
	results, err := RunRevocation(p)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Clients * len(p.RevokeAt)
	for _, r := range results {
		if r.Notifications != want {
			t.Errorf("%s: notifications = %d, want %d", r.Scheme, r.Notifications, want)
		}
		if r.Messages == 0 || r.Bytes == 0 {
			t.Errorf("%s: no traffic measured", r.Scheme)
		}
	}
}

func TestSubscriptionHasZeroStaleness(t *testing.T) {
	r, err := RunRevocationScheme(Subscription, revocationParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.StalenessSteps != 0 {
		t.Fatalf("subscription staleness = %d, want 0", r.StalenessSteps)
	}
}

func TestPollingStalenessBoundedByInterval(t *testing.T) {
	p := revocationParams()
	r, err := RunRevocationScheme(OCSP, p)
	if err != nil {
		t.Fatal(err)
	}
	// Each of the Clients×revocations notifications is at most PollEvery-1
	// steps stale.
	maxTotal := p.Clients * len(p.RevokeAt) * (p.PollEvery - 1)
	if r.StalenessSteps < 0 || r.StalenessSteps > maxTotal {
		t.Fatalf("OCSP staleness = %d, want in [0, %d]", r.StalenessSteps, maxTotal)
	}
}

// The §6 claim: subscriptions "only require server and network resources
// when a credential has been updated", so over a long-lived interaction
// with few revocations they undercut both per-interval polling and
// periodic full-list broadcast, once the one-time subscription setup has
// amortized.
func TestSubscriptionBeatsPollingAndCRL(t *testing.T) {
	p := RevocationParams{
		Clients:     8,
		Credentials: 16,
		Steps:       2000,
		PollEvery:   5,
		CRLEvery:    10,
		RevokeAt:    []int{50},
	}
	results, err := RunRevocation(p)
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[RevocationScheme]RevocationResult{}
	for _, r := range results {
		byScheme[r.Scheme] = r
	}
	sub, ocsp, crl := byScheme[Subscription], byScheme[OCSP], byScheme[CRL]
	if sub.Messages >= ocsp.Messages {
		t.Errorf("subscription messages (%d) should undercut OCSP (%d)", sub.Messages, ocsp.Messages)
	}
	if sub.Messages >= crl.Messages {
		t.Errorf("subscription messages (%d) should undercut CRL (%d)", sub.Messages, crl.Messages)
	}
	t.Logf("messages: subscription=%d ocsp=%d crl=%d", sub.Messages, ocsp.Messages, crl.Messages)
	t.Logf("bytes:    subscription=%d ocsp=%d crl=%d", sub.Bytes, ocsp.Bytes, crl.Bytes)
}

// OCSP cost grows with session length even when nothing changes; the
// subscription scheme's does not (beyond setup).
func TestIdleSessionCostScaling(t *testing.T) {
	short := RevocationParams{Clients: 2, Credentials: 4, Steps: 20, PollEvery: 5, CRLEvery: 10}
	long := short
	long.Steps = 200

	ocspShort, err := RunRevocationScheme(OCSP, short)
	if err != nil {
		t.Fatal(err)
	}
	ocspLong, err := RunRevocationScheme(OCSP, long)
	if err != nil {
		t.Fatal(err)
	}
	if ocspLong.Messages <= ocspShort.Messages*5 {
		t.Errorf("OCSP long-session messages = %d, short = %d: polling should scale with duration",
			ocspLong.Messages, ocspShort.Messages)
	}

	subShort, err := RunRevocationScheme(Subscription, short)
	if err != nil {
		t.Fatal(err)
	}
	subLong, err := RunRevocationScheme(Subscription, long)
	if err != nil {
		t.Fatal(err)
	}
	if subLong.Messages != subShort.Messages {
		t.Errorf("subscription idle cost should not grow with session length: %d vs %d",
			subShort.Messages, subLong.Messages)
	}
}

func TestRevocationOutsideSessionIgnored(t *testing.T) {
	p := revocationParams()
	p.RevokeAt = []int{-5, 20, 1000}
	r, err := RunRevocationScheme(Subscription, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Notifications != p.Clients {
		t.Fatalf("notifications = %d, want %d (one in-session revocation)", r.Notifications, p.Clients)
	}
}
