// Command monitoring contrasts dRBAC's delegation subscriptions (§4.2.2,
// §6) with OCSP-style polling and CRL-style broadcast over a simulated
// long-lived session, printing the measured message and byte costs of each
// scheme, then demonstrates a live proof monitor surviving a revocation
// through an alternate credential.
//
//	go run ./examples/monitoring
package main

import (
	"fmt"
	"log"
	"time"

	"drbac"
	"drbac/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Measured scheme comparison (EXP-S3) ------------------------------
	params := sim.RevocationParams{
		Clients:     8,
		Credentials: 16,
		Steps:       2000, // a long-lived session
		PollEvery:   5,
		CRLEvery:    10,
		RevokeAt:    []int{401, 1203},
	}
	results, err := sim.RunRevocation(params)
	if err != nil {
		return err
	}
	fmt.Printf("session: %d clients x %d credentials, %d steps, %d revocations\n\n",
		params.Clients, params.Credentials, params.Steps, len(params.RevokeAt))
	fmt.Printf("%-14s %10s %12s %14s %10s\n", "scheme", "messages", "bytes", "notifications", "staleness")
	for _, r := range results {
		fmt.Printf("%-14s %10d %12d %14d %10d\n",
			r.Scheme, r.Messages, r.Bytes, r.Notifications, r.StalenessSteps)
	}

	// --- A live monitor riding out a revocation ----------------------------
	fmt.Println("\nlive monitor with an alternate credential:")
	bigISP, err := drbac.NewIdentity("BigISP")
	if err != nil {
		return err
	}
	maria, err := drbac.NewIdentity("Maria")
	if err != nil {
		return err
	}
	dir := drbac.NewDirectory(bigISP.Entity(), maria.Entity())
	w := drbac.NewWallet(drbac.WalletConfig{Directory: dir})

	member := drbac.NewRole(bigISP.ID(), "member")
	now := time.Now()
	var creds []*drbac.Delegation
	for i := 0; i < 2; i++ {
		d, err := drbac.Issue(bigISP, drbac.Template{
			Subject:       drbac.SubjectEntity(maria.ID()),
			SubjectEntity: ptr(maria.Entity()),
			Object:        member,
		}, now)
		if err != nil {
			return err
		}
		if err := w.Publish(d); err != nil {
			return err
		}
		creds = append(creds, d)
	}

	events := make(chan drbac.MonitorEvent, 2)
	mon, err := w.Monitor(drbac.Query{
		Subject: drbac.SubjectEntity(maria.ID()),
		Object:  member,
	}, func(ev drbac.MonitorEvent) { events <- ev })
	if err != nil {
		return err
	}
	defer mon.Close()
	fmt.Println("  session established on credential", mon.Proof().Steps[0].Delegation.ID().Short())

	for i, d := range creds {
		if err := w.Revoke(d.ID(), bigISP.ID()); err != nil {
			return err
		}
		ev := <-events
		fmt.Printf("  revocation %d -> monitor %v", i+1, ev.Kind)
		if ev.Kind == drbac.MonitorReproved {
			fmt.Printf(" (now on %s)", ev.Proof.Steps[0].Delegation.ID().Short())
		}
		fmt.Println()
	}
	fmt.Printf("  session valid: %v\n", mon.Valid())
	return nil
}

func ptr[T any](v T) *T { return &v }
