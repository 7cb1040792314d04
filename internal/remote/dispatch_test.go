package remote

import (
	"context"
	"fmt"
	"testing"

	"drbac/internal/wire"
)

// The handler set and wire.Messages are the two places a request type is
// written down; this holds them together. Every request row is served, every
// handler serves a request row, and no reply, push or reserved type has one.
func TestHandlersCoverRequestRows(t *testing.T) {
	for _, m := range wire.Messages {
		_, served := handlers[m.Type]
		switch request := m.Reply != "" && !m.Reserved; {
		case request && !served:
			t.Errorf("request %q has a row in wire.Messages but no handler", m.Type)
		case !request && served:
			t.Errorf("%q is a reply, push or reserved type yet has a handler", m.Type)
		}
	}
	for typ := range handlers {
		if wire.Lookup(typ) == nil {
			t.Errorf("handler for %q, which wire.Messages does not declare", typ)
		}
	}
}

// A peer that sends a reply, a push, the reserved cluster-hello or a type
// this build has never heard of as a request gets the one refusal, and the
// connection keeps serving.
func TestNonRequestTypesRefused(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	e.serve("wallet.bigisp", "BigISP")
	c := e.dial("wallet.bigisp", "Maria")
	refused := []wire.MsgType{"future-msg"}
	for _, m := range wire.Messages {
		if m.Reply == "" {
			refused = append(refused, m.Type)
		}
	}
	for _, typ := range refused {
		_, err := c.roundTrip(context.Background(), typ, nil)
		want := fmt.Sprintf("remote %s: unknown request type %q", typ, typ)
		if err == nil || err.Error() != want {
			t.Errorf("%s sent as a request: err = %v, want %q", typ, err, want)
		}
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping after refusals: %v", err)
	}
}
