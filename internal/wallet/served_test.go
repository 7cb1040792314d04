package wallet

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/graph"
	"drbac/internal/sigcache"
)

// ServedProofs lets the external test drive the histories over a log store,
// which this package cannot import.
var ServedProofs = servedProofs

// servedProofs is TestServedProofsValidateInFull. The wallet checks a
// signature once, when it admits the delegation, and assembles proofs from
// its graph with core's signature-free ValidateAdmitted. On seeded histories
// of publish (support provided, derived, or forged), TTL inserts, replicated
// installs (with and without support), revocations of held and support-only
// delegations, expiry under the fake clock, sweeps and reopens of the store
// open returns, two things must hold after every step:
//
//   - every proof QueryDirect, QueryDirectOptions, QuerySubject and
//     QueryObject serve passes the full Validate, signatures included, with a
//     fresh memo and with none;
//   - on every graph-built candidate — expired, revoked, constraint-violating
//     and unsupported ones included — ValidateAdmitted and the full Validate
//     give the same verdict.
//
// Every kind of refusal must be met somewhere, so the agreement is not
// vacuous.
func servedProofs(t *testing.T, open func(t *testing.T, dir string) (Store, func())) {
	seeds, steps := 40, 24
	if testing.Short() {
		seeds = 8
	}
	tally := make(map[string]int)
	for seed := int64(0); seed < int64(seeds); seed++ {
		h := newHistory(t, seed, open, tally)
		for step := 0; step < steps; step++ {
			op := h.step()
			h.checkServed(step, op)
			h.checkCandidates(step, op)
		}
		h.closeStore()
	}
	t.Logf("graph-built candidate verdicts: %v", tally)
	for _, kind := range []string{"valid", "revoked", "expired", "constraint", "support"} {
		if tally[kind] == 0 {
			t.Errorf("no graph-built candidate was %s; outcomes: %v", kind, tally)
		}
	}
}

// history is one seeded run: a coalition whose roles live in Org's namespace,
// two agents Org may grant assignment rights to, three users, and the wallet
// under test.
type history struct {
	t     *testing.T
	seed  int64
	rng   *rand.Rand
	e     *env
	tally map[string]int

	dir        string
	open       func(t *testing.T, dir string) (Store, func())
	closeStore func()
	cfg        Config
	w          *Wallet
	memo       *sigcache.Cache // checks graph-built candidates in full

	org        *core.Identity
	agents     []*core.Identity
	principals []*core.Identity // agents and users: every entity subject
	roles      []core.Role
	bw         core.AttributeRef
	issued     []*core.Delegation // everything issued, held or support-only
	candidates []*core.Proof      // graph-built, kept across steps
}

func newHistory(t *testing.T, seed int64, open func(t *testing.T, dir string) (Store, func()), tally map[string]int) *history {
	e := newEnv(t, "Org", "Agent1", "Agent2", "U1", "U2", "U3")
	h := &history{
		t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), e: e, tally: tally,
		dir: t.TempDir(), open: open, memo: sigcache.New(0),
		org:    e.id("Org"),
		agents: []*core.Identity{e.id("Agent1"), e.id("Agent2")},
	}
	h.principals = append(h.principals, h.agents...)
	h.principals = append(h.principals, e.id("U1"), e.id("U2"), e.id("U3"))
	for _, name := range []string{"r0", "r1", "r2", "r3", "r4"} {
		h.roles = append(h.roles, core.NewRole(h.org.ID(), name))
	}
	h.bw = core.AttributeRef{Namespace: h.org.ID(), Name: "BW"}
	h.cfg = Config{MaxProofs: 6, StrictAttributes: seed%3 == 0}
	h.reopen()
	return h
}

// reopen builds a fresh wallet over the store in h.dir, closing the last one.
func (h *history) reopen() {
	if h.closeStore != nil {
		h.closeStore()
	}
	var st Store
	st, h.closeStore = h.open(h.t, h.dir)
	cfg := h.cfg
	cfg.Store, cfg.SigCache = st, sigcache.New(0)
	h.w = h.e.wallet(cfg)
}

func (h *history) fatalf(step int, op, format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("seed %d step %d (%s): "+format, append([]any{h.seed, step, op}, args...)...)
}

// issue signs subject ⇒ object by issuer, with a random attribute, depth
// limit and expiry.
func (h *history) issue(issuer *core.Identity, subject core.Subject, object core.Role) *core.Delegation {
	tmpl := core.Template{Subject: subject, Object: object}
	if h.rng.Intn(3) == 0 {
		tmpl.Attributes = []core.AttributeSetting{{Attr: h.bw, Op: core.OpMinimum, Value: float64(10 + h.rng.Intn(200))}}
	}
	if h.rng.Intn(4) == 0 {
		tmpl.DepthLimit = 1 + h.rng.Intn(2)
	}
	if h.rng.Intn(4) == 0 {
		tmpl.Expiry = h.e.clk.Now().Add(time.Duration(1+h.rng.Intn(40)) * time.Minute)
	}
	d, err := core.Issue(issuer, tmpl, h.e.clk.Now())
	if err != nil {
		h.t.Fatal(err)
	}
	h.issued = append(h.issued, d)
	return d
}

func (h *history) role() core.Role { return h.roles[h.rng.Intn(len(h.roles))] }

// subject is a principal or a role other than not.
func (h *history) subject(not core.Role) core.Subject {
	if h.rng.Intn(2) == 0 {
		return core.SubjectEntity(h.principals[h.rng.Intn(len(h.principals))].ID())
	}
	for {
		if r := h.role(); r != not {
			return core.SubjectRole(r)
		}
	}
}

// object is one of Org's roles, or the right to assign one or to set BW.
func (h *history) object() core.Role {
	switch h.rng.Intn(6) {
	case 0:
		return h.role().Assignment()
	case 1:
		return h.bw.AssignmentRole(core.OpMinimum)
	default:
		return h.role()
	}
}

// insert admits d with support one of three ways, at random: published,
// TTL-cached, or installed as a replica would.
func (h *history) insert(d *core.Delegation, support []*core.Proof) error {
	switch h.rng.Intn(4) {
	case 0:
		return h.w.InsertCached(d, support, time.Duration(5+h.rng.Intn(25))*time.Minute)
	case 1:
		_, err := h.w.InstallReplicated(StoredBundle{Delegation: d, Support: support})
		return err
	default:
		return h.w.Publish(d, support...)
	}
}

// step applies one random operation and names it.
func (h *history) step() string {
	switch r := h.rng.Intn(20); {
	case r < 6:
		object := h.object()
		_ = h.insert(h.issue(h.org, h.subject(object), object), nil)
		return "self-certified"
	case r < 11:
		return h.thirdParty()
	case r < 14:
		// Held delegations in issue order, so the seed picks the same one.
		var held []*core.Delegation
		for _, d := range h.issued {
			if h.w.Contains(d.ID()) {
				held = append(held, d)
			}
		}
		if len(held) == 0 {
			return "revoke-none"
		}
		d := held[h.rng.Intn(len(held))]
		_ = h.w.Revoke(d.ID(), d.Issuer.ID())
		return "revoke"
	case r < 15:
		if len(h.issued) == 0 {
			return "accept-revocation-none"
		}
		// Possibly a delegation that lives only inside support proofs.
		h.w.AcceptRevocation(h.issued[h.rng.Intn(len(h.issued))].ID())
		return "accept-revocation"
	case r < 18:
		h.e.clk.Advance(time.Duration(1+h.rng.Intn(20)) * time.Minute)
		if h.rng.Intn(2) == 0 {
			h.w.SweepExpired()
			h.w.SweepStaleCache()
		}
		return "advance"
	case r < 19:
		h.reopen()
		return "reopen"
	default:
		// A primary's admission is trusted: a third-party bundle arriving
		// without support is installed and refused at query time.
		object := h.role()
		_, _ = h.w.InstallReplicated(StoredBundle{Delegation: h.issue(h.agents[0], h.subject(object), object)})
		return "install-unsupported"
	}
}

// thirdParty has an agent delegate one of Org's roles, with support the
// wallet derives, support the wallet served, a fresh grant, or a forged one.
func (h *history) thirdParty() string {
	agent := h.agents[h.rng.Intn(len(h.agents))]
	object := h.role()
	d := h.issue(agent, h.subject(object), object)
	need := d.RequiredSupport(h.cfg.StrictAttributes)
	var support []*core.Proof
	kind := "derived"
	switch h.rng.Intn(4) {
	case 0:
	case 1:
		kind = "served"
		for _, role := range need {
			if p, err := h.w.QueryDirect(Query{Subject: core.SubjectEntity(agent.ID()), Object: role}); err == nil {
				support = append(support, p)
			}
		}
	default:
		kind = "granted"
		forge := h.rng.Intn(3) == 0
		for _, role := range need {
			g := h.issue(h.org, core.SubjectEntity(agent.ID()), role)
			if forge {
				g.Signature = append([]byte(nil), g.Signature...)
				g.Signature[0] ^= 1
				kind = "forged"
			}
			p, err := core.NewProof(core.ProofStep{Delegation: g})
			if err != nil {
				h.t.Fatal(err)
			}
			support = append(support, p)
		}
	}
	err := h.insert(d, support)
	var sigErr *core.SignatureError
	if kind == "forged" && !errors.As(err, &sigErr) {
		h.t.Fatalf("seed %d: third-party delegation with forged support admitted: err = %v", h.seed, err)
	}
	return "third-party-" + kind
}

// query is a random question, constrained one time in four.
func (h *history) query() Query {
	object := h.object()
	q := Query{Subject: h.subject(object), Object: object}
	if h.rng.Intn(4) == 0 {
		q.Constraints = []core.Constraint{{Attr: h.bw, Base: math.Inf(1), Minimum: float64(h.rng.Intn(150))}}
	}
	return q
}

func (h *history) validateOptions(q Query) core.ValidateOptions {
	return core.ValidateOptions{
		At:               h.w.Now(),
		Revoked:          h.w.IsRevoked,
		StrictAttributes: h.cfg.StrictAttributes,
		Constraints:      q.Constraints,
	}
}

// checkServed asks every query surface one random question and validates
// each proof served in full, with a fresh memo and with none.
func (h *history) checkServed(step int, op string) {
	q := h.query()
	var served []*core.Proof
	for _, dirn := range []graph.Direction{graph.Forward, graph.Reverse} {
		q.Direction = dirn
		if p, err := h.w.QueryDirect(q); err == nil {
			served = append(served, p)
		}
	}
	if p, err := h.w.QueryDirectOptions(q, graph.Options{DisablePruning: h.rng.Intn(2) == 0}); err == nil {
		served = append(served, p)
	}
	served = append(served, h.w.QuerySubject(q.Subject, q.Constraints)...)
	served = append(served, h.w.QueryObject(q.Object, q.Constraints)...)
	for _, p := range served {
		for _, v := range []core.SigVerifier{sigcache.New(0), nil} {
			opts := h.validateOptions(q)
			opts.SigVerifier = v
			if err := p.Validate(opts); err != nil {
				h.fatalf(step, op, "served %v, which fails full validation: %v", p, err)
			}
		}
	}
}

// checkCandidates searches the graph with expiry and constraints off, keeps
// what it finds beside earlier steps' candidates (which may since have been
// revoked or expired), and checks both validations agree on each under a
// random constraint.
func (h *history) checkCandidates(step int, op string) {
	q := h.query()
	opts := graph.Options{MaxProofs: 4}
	if p, err := h.w.g.FindDirect(q.Subject, q.Object, opts); err == nil {
		h.candidates = append(h.candidates, p)
	}
	h.candidates = append(h.candidates, h.w.g.EnumerateFrom(q.Subject, opts)...)
	h.candidates = append(h.candidates, h.w.g.EnumerateTo(q.Object, opts)...)
	if n := len(h.candidates); n > 24 {
		h.candidates = h.candidates[n-24:]
	}
	vopts := h.validateOptions(q)
	for _, c := range h.candidates {
		admitted := c.ValidateAdmitted(vopts)
		full := vopts
		full.SigVerifier = h.memo
		if err := c.Validate(full); !sameVerdict(admitted, err) {
			h.fatalf(step, op, "candidate %v: ValidateAdmitted = %v, Validate = %v", c, admitted, err)
		}
		h.tally[verdict(admitted)]++
	}
}

func sameVerdict(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// verdict classifies a validation outcome for the coverage tally.
func verdict(err error) string {
	var expired *core.ExpiredError
	var constraint *core.ConstraintError
	var missing *core.MissingSupportError
	switch {
	case err == nil:
		return "valid"
	case errors.Is(err, core.ErrRevoked):
		return "revoked"
	case errors.As(err, &expired):
		return "expired"
	case errors.As(err, &constraint):
		return "constraint"
	case errors.As(err, &missing):
		return "support"
	default:
		return "other"
	}
}
