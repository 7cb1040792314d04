package discovery

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/transport"
	"drbac/internal/wallet"
	"drbac/internal/wire"
)

// expandLog records every query-expand request an agent sends, in order:
// home, node, subject, object, constraints (exact floats) and direction.
type expandLog struct {
	mu   sync.Mutex
	reqs []string
}

func (l *expandLog) list() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.reqs...)
}

type recordingDialer struct {
	transport.Dialer
	log *expandLog
}

func (d recordingDialer) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	c, err := d.Dialer.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &recordingConn{Conn: c, log: d.log, addr: addr}, nil
}

type recordingConn struct {
	transport.Conn
	log  *expandLog
	addr string
}

func (c *recordingConn) Send(frame []byte) error {
	if env, err := wire.CodecFor(wire.CodecBinary).Decode(frame); err == nil && env.Type == wire.TQueryExpand {
		var req wire.QueryReq
		if err := wire.DecodeBody(env, &req); err == nil {
			var cs []string
			for _, k := range req.Constraints {
				cs = append(cs, fmt.Sprintf("%s.%s:%s>=%s", k.Attr.Namespace, k.Attr.Name,
					strconv.FormatFloat(k.Base, 'g', -1, 64), strconv.FormatFloat(k.Minimum, 'g', -1, 64)))
			}
			c.log.mu.Lock()
			c.log.reqs = append(c.log.reqs, fmt.Sprintf("%s %s => %s [%s] dir=%d",
				c.addr, req.Subject, req.Object, strings.Join(cs, " "), req.Direction))
			c.log.mu.Unlock()
		}
	}
	return c.Conn.Send(frame)
}

// run is one discovery's observable outcome.
type run struct {
	found   bool
	proof   string
	stats   Stats
	expands []string
	// enumerations counts the subject and object queries the local wallet
	// answered, when it has an Obs.
	enumerations int64
}

// worldFunc builds one world into a fresh env and returns the agent and the
// query; every dialer it builds goes through wrap.
type worldFunc func(t *testing.T, wrap func(transport.Dialer) transport.Dialer) (*Agent, wallet.Query)

// runBoth builds the world twice, runs the reference round algorithm on one
// copy and the agent on the other, and returns both outcomes.
func runBoth(t *testing.T, build worldFunc, mode Mode) (ref, got run) {
	t.Helper()
	do := func(reference bool) run {
		log := &expandLog{}
		a, q := build(t, func(d transport.Dialer) transport.Dialer { return recordingDialer{d, log} })
		var r run
		var p *core.Proof
		var err error
		if reference {
			p, err = a.refDiscover(context.Background(), q, mode, &r.stats)
		} else {
			p, err = a.Discover(context.Background(), q, mode, &r.stats)
		}
		if err != nil && !errors.Is(err, core.ErrNoProof) {
			t.Fatalf("reference=%v: discover: %v", reference, err)
		}
		r.found = err == nil
		if p != nil {
			r.proof = p.String()
		}
		r.expands = log.list()
		if reg := a.cfg.Local.Obs().Registry(); reg != nil {
			s := reg.Snapshot()
			r.enumerations = s.Counters["drbac_wallet_query_subject_total"] + s.Counters["drbac_wallet_query_object_total"]
		}
		return r
	}
	return do(true), do(false)
}

// sameRun reports how got differs from ref: found or not, the proof's
// chain, Stats with every Trace event, and each query-expand request, all in
// order.
func sameRun(ref, got run) string {
	var diffs []string
	if ref.found != got.found {
		diffs = append(diffs, fmt.Sprintf("found %v, reference %v", got.found, ref.found))
	}
	if ref.found && got.found && ref.proof != got.proof {
		diffs = append(diffs, fmt.Sprintf("proof %s, reference %s", got.proof, ref.proof))
	}
	if a, b := fmt.Sprintf("%+v", got.stats), fmt.Sprintf("%+v", ref.stats); a != b {
		diffs = append(diffs, fmt.Sprintf("stats\n  got %s\n  ref %s", a, b))
	}
	if a, b := strings.Join(got.expands, "\n    "), strings.Join(ref.expands, "\n    "); a != b {
		diffs = append(diffs, fmt.Sprintf("query-expands\n  got\n    %s\n  ref\n    %s", a, b))
	}
	return strings.Join(diffs, "\n")
}

var allModes = []struct {
	name string
	mode Mode
}{{"auto", Auto}, {"forward", ForwardOnly}, {"reverse", ReverseOnly}}

// TestAgentMatchesReference runs the agent and the reference round algorithm
// (re-enumerate every pass, re-check every round) over the same worlds:
// Figure 2 in every mode, mirrored or not, with and without constraints and
// range adjustment; chains of 2 to 8 hops; and generated worlds with k
// candidate roles per home, attribute constraints, depth limits, credentials
// the local wallet already holds, hostile homes and a home that is down
// for the first round. Both must find a proof or not alike, with the same
// Stats and Trace, sending the same query-expand requests in the same order.
func TestAgentMatchesReference(t *testing.T) {
	check := func(t *testing.T, build worldFunc, mode Mode) run {
		t.Helper()
		ref, got := runBoth(t, build, mode)
		if d := sameRun(ref, got); d != "" {
			t.Fatalf("agent differs from the reference:\n%s", d)
		}
		return got
	}
	t.Run("figure2", func(t *testing.T) {
		for _, m := range allModes {
			for _, mirror := range []bool{false, true} {
				for _, constrained := range []bool{false, true} {
					for _, noAdjust := range []bool{false, true} {
						name := fmt.Sprintf("%s/mirror=%v/constrained=%v/noAdjust=%v", m.name, mirror, constrained, noAdjust)
						t.Run(name, func(t *testing.T) {
							check(t, figure2World(mirror, constrained, noAdjust), m.mode)
						})
					}
				}
			}
		}
	})
	t.Run("chain", func(t *testing.T) {
		for hops := 2; hops <= 8; hops++ {
			for _, m := range allModes {
				t.Run(fmt.Sprintf("%d/%s", hops, m.name), func(t *testing.T) {
					check(t, chainWorld(hops), m.mode)
				})
			}
		}
	})
	t.Run("generated", func(t *testing.T) {
		seeds := 150
		if testing.Short() {
			seeds = 20
		}
		var found, missed, multiRound, walkedAgain int
		for seed := int64(1); seed <= int64(seeds); seed++ {
			for _, m := range allModes {
				for _, noAdjust := range []bool{false, true} {
					t.Run(fmt.Sprintf("%d/%s/noAdjust=%v", seed, m.name, noAdjust), func(t *testing.T) {
						r := check(t, generatedWorld(seed, noAdjust), m.mode)
						switch {
						case r.found:
							found++
						default:
							missed++
						}
						if r.stats.Rounds > 1 {
							multiRound++
						}
						initial := int64(2)
						if m.mode != Auto {
							initial = 1
						}
						if r.enumerations > initial {
							walkedAgain++
						}
					})
				}
			}
		}
		// The worlds must exercise both answers and more than one round, or
		// agreement shows little.
		summary := fmt.Sprintf("generated worlds: %d found, %d not, %d over several rounds, %d walking the local wallet again",
			found, missed, multiRound, walkedAgain)
		if found == 0 || missed == 0 || multiRound == 0 || walkedAgain == 0 {
			t.Fatal(summary)
		}
		t.Log(summary)
	})
}

// figure2World is the §5 case study. mirror also registers delegation (2)
// at AirNet's home, making the chain reachable from its object end; the
// object's home is registered for reverse search.
func figure2World(mirror, constrained, noAdjust bool) worldFunc {
	return func(t *testing.T, wrap func(transport.Dialer) transport.Dialer) (*Agent, wallet.Query) {
		e := newEnv(t, "BigISP", "AirNet", "Mark", "Sheila", "Maria", "AirNetServer")
		e.wrap = wrap
		cs := setupCaseStudy(t, e)
		cs.agent.cfg.DisableRangeAdjustment = noAdjust
		cs.agent.RegisterTag(e.subject("AirNet.access"), e.tag("wallet.airnet", core.SubjectNone, core.ObjectSearch))
		if mirror {
			d2, support, _ := cs.bigISPWallet.Get(cs.d2.ID())
			if err := cs.airNetWallet.Publish(d2, support...); err != nil {
				t.Fatal(err)
			}
		}
		q := cs.query
		if constrained {
			q.Constraints = []core.Constraint{
				{Attr: cs.bw, Base: math.Inf(1), Minimum: 50},
				{Attr: cs.storage, Base: 50, Minimum: 20},
				{Attr: cs.hours, Base: 60, Minimum: 10},
			}
		}
		return cs.agent, q
	}
}

// chainWorld is RunChainDiscovery's world: a chain of hops links, each
// stored in the home of its subject, the first handed to the local wallet.
func chainWorld(hops int) worldFunc {
	return func(t *testing.T, wrap func(transport.Dialer) transport.Dialer) (*Agent, wallet.Query) {
		names := []string{"User", "Server"}
		for i := 0; i < hops; i++ {
			names = append(names, fmt.Sprintf("Org%d", i))
		}
		e := newEnv(t, names...)
		e.wrap = wrap
		level := func(i int) core.Role { return core.NewRole(e.id(fmt.Sprintf("Org%d", i)).ID(), "level") }
		tags := make([]core.DiscoveryTag, hops)
		homes := make([]*wallet.Wallet, hops)
		for i := range tags {
			addr := fmt.Sprintf("wallet.org%d", i)
			homes[i] = e.serve(addr, fmt.Sprintf("Org%d", i))
			tags[i] = e.tag(addr, core.SubjectSearch, core.ObjectNone)
			tags[i].TTL = 0
		}
		issue := func(issuer int, tmpl core.Template) *core.Delegation {
			d, err := core.Issue(e.id(fmt.Sprintf("Org%d", issuer)), tmpl, e.clk.Now())
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		first := issue(0, core.Template{Subject: e.subject("User"), Object: level(0), ObjectTag: &tags[0]})
		for i := 0; i+1 < hops; i++ {
			d := issue(i+1, core.Template{Subject: core.SubjectRole(level(i)), Object: level(i + 1),
				SubjectTag: &tags[i], ObjectTag: &tags[i+1]})
			if err := homes[i].Publish(d); err != nil {
				t.Fatal(err)
			}
		}
		last := hops - 1
		goal := core.NewRole(e.id(fmt.Sprintf("Org%d", last)).ID(), "goal")
		if err := homes[last].Publish(issue(last, core.Template{Subject: core.SubjectRole(level(last)), Object: goal,
			SubjectTag: &tags[last]})); err != nil {
			t.Fatal(err)
		}
		a, local := e.agent("Server", Config{})
		if err := local.Publish(first); err != nil {
			t.Fatal(err)
		}
		a.Learn(first)
		return a, wallet.Query{Subject: e.subject("User"), Object: goal}
	}
}

// generatedWorld is a random coalition drawn from seed: two to four homes
// with one to three candidate roles each, random role-to-role delegations
// kept at the subject's home, the object's, both, or the local wallet, some
// setting attributes (now and then with a conflicting operator) or limiting
// depth, one or two credentials handed to the local wallet, an optionally
// constrained query, and now and then a hostile home or a home that refuses
// its first dial.
func generatedWorld(seed int64, noAdjust bool) worldFunc {
	return func(t *testing.T, wrap func(transport.Dialer) transport.Dialer) (*Agent, wallet.Query) {
		rng := rand.New(rand.NewSource(seed))
		e := newEnv(t, "Org0", "Org1", "Org2", "Org3", "User", "Server", "Mallory")
		homes, per := 2+rng.Intn(3), 1+rng.Intn(3)
		org := func(h int) string { return fmt.Sprintf("Org%d", h) }
		addr := func(h int) string { return fmt.Sprintf("wallet.org%d", h) }
		type node struct {
			h    int
			role core.Role
			tag  core.DiscoveryTag
		}
		var nodes []node
		wallets := make([]*wallet.Wallet, homes)
		for h := range wallets {
			wallets[h] = e.serve(addr(h), org(h))
			for i := 0; i < per; i++ {
				sf, of := core.SubjectNone, core.ObjectNone
				if rng.Intn(4) > 0 {
					sf = core.SubjectSearch
				}
				if rng.Intn(2) == 0 {
					of = core.ObjectSearch
				}
				nodes = append(nodes, node{h, core.NewRole(e.id(org(h)).ID(), fmt.Sprintf("r%d", i)), e.tag(addr(h), sf, of)})
			}
		}
		ns := e.id("Org0").ID()
		bw := core.AttributeRef{Namespace: ns, Name: "bw"}
		quota := core.AttributeRef{Namespace: ns, Name: "quota"}
		rate := core.AttributeRef{Namespace: ns, Name: "rate"}
		attrs := func() []core.AttributeSetting {
			switch rng.Intn(6) {
			case 0:
				return []core.AttributeSetting{{Attr: bw, Op: core.OpMinimum, Value: float64(50 + rng.Intn(150))}}
			case 1:
				return []core.AttributeSetting{{Attr: quota, Op: core.OpSubtract, Value: float64(5 + rng.Intn(20))}}
			case 2:
				return []core.AttributeSetting{{Attr: rate, Op: core.OpMultiply, Value: 0.5 + 0.1*float64(rng.Intn(5))}}
			case 3:
				// The operator another delegation binds bw to: a chain
				// through both has an operator conflict.
				return []core.AttributeSetting{{Attr: bw, Op: core.OpSubtract, Value: 1}}
			}
			return nil
		}
		issue := func(subject core.Subject, subjectTag *core.DiscoveryTag, to node) *core.Delegation {
			tmpl := core.Template{Subject: subject, Object: to.role, SubjectTag: subjectTag, ObjectTag: &to.tag}
			if rng.Intn(3) == 0 {
				tmpl.Attributes = attrs()
			}
			if rng.Intn(4) == 0 {
				tmpl.DepthLimit = 1 + rng.Intn(3)
			}
			d, err := core.Issue(e.id(org(to.h)), tmpl, e.clk.Now())
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		publish := func(w *wallet.Wallet, d *core.Delegation) {
			if err := w.Publish(d); err != nil {
				t.Fatal(err)
			}
		}
		cfg := wallet.Config{Owner: e.id("Server"), Clock: e.clk, Directory: e.dir, Obs: obs.New(nil, obs.NewRegistry())}
		if rng.Intn(4) == 0 {
			cfg.MaxDepth = 2 + rng.Intn(2) // shorter than some chains
		}
		local := wallet.New(cfg)
		var issued []*core.Delegation
		for i, n := 0, len(nodes)*2+rng.Intn(len(nodes)+1); i < n; i++ {
			from, to := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
			if from.role == to.role {
				continue
			}
			d := issue(core.SubjectRole(from.role), &from.tag, to)
			issued = append(issued, d)
			switch rng.Intn(7) {
			case 0, 1, 2:
				publish(wallets[from.h], d)
			case 3, 4:
				publish(wallets[to.h], d)
			case 5:
				publish(wallets[from.h], d)
				publish(wallets[to.h], d)
			case 6:
				publish(local, d)
			}
		}
		dial := e.net.Dialer(e.id("Server"))
		if rng.Intn(4) == 0 {
			plan := transport.NewFaults()
			down := addr(rng.Intn(homes))
			plan.Set(down, transport.Fault{RefuseDial: true})
			dial = &healingDialer{Dialer: &transport.FaultDialer{Inner: dial, Plan: plan}, plan: plan, addr: down, heal: 1}
		}
		a := NewAgent(Config{Local: local, Dialer: wrap(dial), DisableRangeAdjustment: noAdjust})
		t.Cleanup(a.Close)
		user := e.subject("User")
		for i, n := 0, 1+rng.Intn(2); i < n; i++ {
			d := issue(user, nil, nodes[rng.Intn(len(nodes))])
			publish(local, d)
			a.Learn(d)
		}
		q := wallet.Query{Subject: user, Object: nodes[rng.Intn(len(nodes))].role}
		if rng.Intn(2) == 0 {
			q.Constraints = append(q.Constraints, core.Constraint{Attr: bw, Base: math.Inf(1), Minimum: float64(40 + rng.Intn(120))})
		}
		if rng.Intn(3) == 0 {
			q.Constraints = append(q.Constraints, core.Constraint{Attr: quota, Base: 100, Minimum: float64(60 + rng.Intn(40))})
		}
		if rng.Intn(2) == 0 {
			for _, n := range nodes {
				if n.role == q.Object {
					a.RegisterTag(core.SubjectRole(n.role), e.tag(addr(n.h), core.SubjectSearch, core.ObjectSearch))
				}
			}
		}
		if rng.Intn(4) == 0 && len(issued) > 0 {
			// A hostile home answers everything with a forged credential
			// whose tag points at itself, and one role is said to live there.
			forged := *issued[rng.Intn(len(issued))]
			evil := e.tag("wallet.evil", core.SubjectSearch, core.ObjectSearch)
			forged.ObjectTag = &evil
			p, err := core.NewProof(core.ProofStep{Delegation: &forged})
			if err != nil {
				t.Fatal(err)
			}
			serveMalicious(t, e.net, "wallet.evil", e.id("Mallory"), p)
			a.RegisterTag(core.SubjectRole(nodes[rng.Intn(len(nodes))].role), evil)
		}
		return a, q
	}
}

// The saving, read from the local wallet's own counters: a discovery over
// the discover workload's three-home chain (a credential handed over, then
// one link at each home, found in the third round) enumerates the local
// wallet once from each end, and queries it directly twice: once before the
// first round and once on the direct answer. The reference algorithm does
// so every pass and every round.
func TestDiscoveryLocalWork(t *testing.T) {
	counts := func(reference bool) [3]int64 {
		e := newEnv(t, "Org0", "Org1", "Org2", "User", "Server")
		reg := obs.NewRegistry()
		local := wallet.New(wallet.Config{Owner: e.id("Server"), Clock: e.clk, Directory: e.dir, Obs: obs.New(nil, reg)})
		var tags [3]core.DiscoveryTag
		var homes [3]*wallet.Wallet
		role := func(h int, name string) core.Role { return core.NewRole(e.id(fmt.Sprintf("Org%d", h)).ID(), name) }
		for h := range homes {
			homes[h] = e.serve(fmt.Sprintf("wallet.org%d", h), fmt.Sprintf("Org%d", h))
			tags[h] = e.tag(fmt.Sprintf("wallet.org%d", h), core.SubjectSearch, core.ObjectNone)
		}
		issue := func(h int, tmpl core.Template) *core.Delegation {
			d, err := core.Issue(e.id(fmt.Sprintf("Org%d", h)), tmpl, e.clk.Now())
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		carried := issue(0, core.Template{Subject: e.subject("User"), Object: role(0, "r"), ObjectTag: &tags[0]})
		links := []*core.Delegation{
			issue(1, core.Template{Subject: core.SubjectRole(role(0, "r")), Object: role(1, "r"), SubjectTag: &tags[0], ObjectTag: &tags[1]}),
			issue(2, core.Template{Subject: core.SubjectRole(role(1, "r")), Object: role(2, "r"), SubjectTag: &tags[1], ObjectTag: &tags[2]}),
			issue(2, core.Template{Subject: core.SubjectRole(role(2, "r")), Object: role(2, "access"), SubjectTag: &tags[2]}),
		}
		for h, d := range links {
			if err := homes[h].Publish(d); err != nil {
				t.Fatal(err)
			}
		}
		a := NewAgent(Config{Local: local, Dialer: e.net.Dialer(e.id("Server"))})
		t.Cleanup(a.Close)
		if err := local.Publish(carried); err != nil {
			t.Fatal(err)
		}
		a.Learn(carried)
		q := wallet.Query{Subject: e.subject("User"), Object: role(2, "access")}
		var stats Stats
		var err error
		if reference {
			_, err = a.refDiscover(context.Background(), q, Auto, &stats)
		} else {
			_, err = a.Discover(context.Background(), q, Auto, &stats)
		}
		if err != nil {
			t.Fatalf("reference=%v: %v", reference, err)
		}
		if stats.Rounds != 3 || stats.RemoteQueries != 3 {
			t.Fatalf("reference=%v: %d rounds, %d remote queries; want 3 and 3", reference, stats.Rounds, stats.RemoteQueries)
		}
		s := reg.Snapshot()
		return [3]int64{s.Counters["drbac_wallet_query_direct_total"],
			s.Counters["drbac_wallet_query_subject_total"], s.Counters["drbac_wallet_query_object_total"]}
	}
	if got, want := counts(true), [3]int64{4, 3, 2}; got != want {
		t.Errorf("reference: direct, subject, object queries = %v, want %v", got, want)
	}
	if got, want := counts(false), [3]int64{2, 1, 1}; got != want {
		t.Errorf("agent: direct, subject, object queries = %v, want %v", got, want)
	}
}

// TestFrontierMatchesEnumeration checks the frontier's one invariant
// directly: after every batch of inserted delegations it holds exactly the
// chains a fresh local enumeration from its end lists, in the same order,
// with the same aggregates, and it reports a join exactly when a chain that
// reaches the goal appeared. Worlds are random role graphs with attributes
// (conflicting operators included), depth limits and a short wallet depth
// bound; the delegations arrive in random batches, each grown at once.
func TestFrontierMatchesEnumeration(t *testing.T) {
	e := newEnv(t, "Org", "User")
	org := e.id("Org")
	user := e.subject("User")
	ns := org.ID()
	bw := core.AttributeRef{Namespace: ns, Name: "bw"}
	quota := core.AttributeRef{Namespace: ns, Name: "quota"}
	worlds := 300
	if testing.Short() {
		worlds = 60
	}
	for seed := int64(1); seed <= int64(worlds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		roles := make([]core.Role, 3+rng.Intn(5))
		for i := range roles {
			roles[i] = core.NewRole(ns, fmt.Sprintf("r%d", i))
		}
		var ds []*core.Delegation
		for i, n := 0, len(roles)*2+rng.Intn(len(roles)*2); i < n; i++ {
			tmpl := core.Template{Subject: core.SubjectRole(roles[rng.Intn(len(roles))]), Object: roles[rng.Intn(len(roles))]}
			if rng.Intn(5) == 0 {
				tmpl.Subject = user
			}
			if tmpl.Subject.Role == tmpl.Object {
				continue
			}
			switch rng.Intn(6) {
			case 0:
				tmpl.Attributes = []core.AttributeSetting{{Attr: bw, Op: core.OpMinimum, Value: float64(rng.Intn(100))}}
			case 1, 2:
				// Sums of tenths round differently in another order.
				tmpl.Attributes = []core.AttributeSetting{{Attr: quota, Op: core.OpSubtract, Value: 0.1 * float64(1+rng.Intn(9))}}
			case 3:
				tmpl.Attributes = []core.AttributeSetting{{Attr: bw, Op: core.OpSubtract, Value: 1}}
			}
			if rng.Intn(3) == 0 {
				tmpl.DepthLimit = 1 + rng.Intn(3)
			}
			d, err := core.Issue(org, tmpl, e.clk.Now())
			if err != nil {
				t.Fatal(err)
			}
			ds = append(ds, d)
		}
		maxDepth := 0
		if rng.Intn(3) == 0 {
			maxDepth = 2 + rng.Intn(3)
		}
		q := wallet.Query{Subject: user, Object: roles[rng.Intn(len(roles))]}
		if rng.Intn(3) == 0 {
			q.Subject = core.SubjectRole(roles[rng.Intn(len(roles))])
		}
		for _, reverse := range []bool{false, true} {
			local := wallet.New(wallet.Config{Clock: e.clk, Directory: e.dir, MaxDepth: maxDepth})
			rest := ds
			for len(rest) > 0 && rng.Intn(3) > 0 {
				if err := local.Publish(rest[0]); err != nil {
					t.Fatal(err)
				}
				rest = rest[1:]
			}
			f := newFrontier(local, q, reverse)
			where := fmt.Sprintf("seed %d reverse=%v", seed, reverse)
			before := enumerated(f)
			checkFrontier(t, where+" at start", f, before)
			for len(rest) > 0 {
				n := 1 + rng.Intn(len(rest))
				var batch []*core.Delegation
				for _, d := range rest[:n] {
					if err := local.Publish(d); err != nil {
						t.Fatal(err)
					}
					batch = append(batch, d)
				}
				rest = rest[n:]
				f.grow(batch)
				after := enumerated(f)
				checkFrontier(t, where, f, after)
				joined := false
				for key, goal := range after.reach {
					if goal && !before.reach[key] {
						joined = true
					}
				}
				if f.joined != joined {
					t.Fatalf("%s: joined = %v after a batch, want %v", where, f.joined, joined)
				}
				f.joined, before = false, after
			}
		}
	}
}

// enumeration is what a fresh local enumeration from a frontier's end lists:
// each kept chain's delegation IDs and aggregate, in order, and for every
// chain (a reverse one from an entity too) whether it reaches the goal.
type enumeration struct {
	chains []string
	reach  map[string]bool
}

func enumerated(f *frontier) enumeration {
	out := enumeration{reach: make(map[string]bool)}
	for _, p := range f.enumerate(f.root.node) {
		key := ""
		for _, st := range p.Steps {
			key += string(st.Delegation.ID().Short()) + " "
		}
		end := core.SubjectRole(p.Object)
		if f.reverse {
			end = p.Subject
		}
		out.reach[key] = end == f.goal
		if end.IsEntity() {
			continue
		}
		ag, err := p.Aggregate()
		if err != nil {
			panic(err) // the wallet lists no chain with an operator conflict
		}
		out.chains = append(out.chains, key+aggString(ag))
	}
	return out
}

func aggString(ag core.Aggregate) string {
	if len(ag) == 0 {
		return "{}"
	}
	return fmt.Sprint(map[core.AttributeRef]core.Modifier(ag))
}

// checkFrontier compares f's chains, in the order its nodes are listed, with
// a fresh enumeration's.
func checkFrontier(t *testing.T, where string, f *frontier, want enumeration) {
	t.Helper()
	var got []string
	var walk func(c *chain)
	walk = func(c *chain) {
		if c.d != nil {
			var ids []string
			for s := c; s.d != nil; s = s.parent {
				ids = append(ids, string(s.d.ID().Short()))
			}
			if !f.reverse {
				for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
					ids[i], ids[j] = ids[j], ids[i]
				}
			}
			got = append(got, strings.Join(ids, " ")+" "+aggString(c.ag))
		}
		for k := c.kid; k != nil; k = k.next {
			walk(k)
		}
	}
	walk(&f.root)
	if strings.Join(got, "\n") != strings.Join(want.chains, "\n") {
		t.Fatalf("%s: frontier chains\n%s\nwant\n%s", where, strings.Join(got, "\n"), strings.Join(want.chains, "\n"))
	}
	nodes := f.nodes()
	if len(nodes) != len(got)+1 || nodes[0] != f.root.node {
		t.Fatalf("%s: %d nodes for %d chains", where, len(nodes), len(got))
	}
}
