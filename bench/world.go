package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"drbac"
)

// worldEpoch is the instant every generated delegation is issued at. It is
// fixed so that a seed fully determines the delegation IDs; nothing in the
// world expires, so the wallets themselves run on the system clock exactly
// as drbacd does.
var worldEpoch = time.Date(2002, time.July, 2, 0, 0, 0, 0, time.UTC)

// Shape constants of the coalition world. maxProofDepth keeps every
// reachable chain well inside the wallet's 32-step search bound, so the
// reachability oracle needs no depth limit of its own.
const (
	islandOrgs      = 4    // orgs per coalition island; links never leave an island
	usersPerChain   = 16   // entity grants on each chain head
	thirdPartyShare = 0.36 // of user grants; ≈25% of all delegations
	attrEdgeShare   = 0.50 // role→role edges carrying "with org.bw <= v"
	attrGrantShare  = 0.30 // org-issued user grants carrying "with org.quota -= v"
	tailLinkShare   = 0.50 // chains whose tail links into a later org
	midLinkShare    = 0.25 // chains with a second link from a middle role
	maxProofDepth   = 24
	churnServices   = 8 // issuer roles publish and revoke publish under
)

// bundle is one publication: a delegation and the support proofs its
// issuer must present (empty for self-certified delegations).
type bundle struct {
	d       *drbac.Delegation
	support []*drbac.Proof
}

// pair is one authorization question with its expected outcome, labelled
// by the generator's own reachability oracle rather than by the wallet.
type pair struct {
	subject     drbac.Subject
	object      drbac.Role
	constraints []drbac.Constraint
	provable    bool
}

// gen is the deterministic source every world is built from: one seeded
// PRNG for shapes and nonces, and seed-derived ed25519 identities.
type gen struct {
	seed int64
	rng  *rand.Rand
}

func newGen(seed int64) *gen {
	return &gen{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

func (g *gen) derive(label string, n int) [32]byte {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(g.seed))
	binary.BigEndian.PutUint64(buf[8:], uint64(n))
	return sha256.Sum256(append(buf[:], label...))
}

func (g *gen) identity(label string, n int) *drbac.Identity {
	s := g.derive("identity/"+label, n)
	id, err := drbac.IdentityFromSeed(fmt.Sprintf("%s%d", label, n), s[:])
	if err != nil {
		panic(err) // the seed is always 32 bytes
	}
	return id
}

// user fabricates an entity fingerprint. Users only ever appear as
// delegation subjects, so they need an ID but no key pair.
func (g *gen) user(label string, n int) drbac.EntityID {
	s := g.derive("user/"+label, n)
	return drbac.EntityID(hex.EncodeToString(s[:]))
}

// issue signs a delegation like drbac.Issue but with a nonce from the
// seeded PRNG (Issue draws it from crypto/rand, which would make the IDs —
// and so the whole world — differ from run to run).
func (g *gen) issue(issuer *drbac.Identity, t drbac.Template) *drbac.Delegation {
	d := &drbac.Delegation{
		Subject:    t.Subject,
		Object:     t.Object,
		Issuer:     issuer.Entity(),
		Attributes: t.Attributes,
		IssuedAt:   worldEpoch,
		Nonce:      g.rng.Uint64(),
		SubjectTag: t.SubjectTag,
		ObjectTag:  t.ObjectTag,
	}
	if err := d.ValidateStructure(); err != nil {
		panic(fmt.Sprintf("world: generated a malformed delegation: %v", err))
	}
	d.Signature = issuer.SignBytes(d.SigningBytes())
	return d
}

type chain struct {
	org   int
	roles []drbac.Role
	depth int // longest proof from a user to the chain's head
}

type grant struct {
	user  drbac.EntityID
	chain int
}

// authzWorld is the single-wallet coalition world behind authz-hot,
// authz-cold, publish and revoke.
type authzWorld struct {
	g       *gen
	orgs    []*drbac.Identity
	bundles []bundle // in publication order: support before dependents
	chains  []chain
	grants  []grant
	next    map[drbac.Role][]drbac.Role // the oracle's role graph

	// Churn fixtures: the issuing identity client A dials as, and the
	// service → tier edge each fresh delegation's dependent query crosses.
	issuer   *drbac.Identity
	services []drbac.Role
	tiers    []drbac.Role
}

func bw(org *drbac.Identity) drbac.AttributeRef {
	return drbac.AttributeRef{Namespace: org.ID(), Name: "bw"}
}

// buildAuthzWorld generates about n delegations: orgs grouped into
// islands, role chains 4–8 deep inside each org, coalition links from a
// chain into a later org of the same island, user grants on chain heads
// (a share of them third-party, issued by the org's registrar under a
// two-step right-of-assignment support proof), and valued attributes on a
// share of the edges.
func buildAuthzWorld(seed int64, n int) *authzWorld {
	g := newGen(seed)
	w := &authzWorld{g: g, next: make(map[drbac.Role][]drbac.Role)}
	norgs := 32
	for norgs > islandOrgs && n/norgs < 60 {
		norgs /= 2
	}
	registrars := make([]*drbac.Identity, norgs)
	adminProof := make([]drbac.ProofStep, norgs)
	for i := 0; i < norgs; i++ {
		w.orgs = append(w.orgs, g.identity("Org", i))
		registrars[i] = g.identity("Registrar", i)
		d := g.issue(w.orgs[i], drbac.Template{
			Subject: drbac.SubjectEntity(registrars[i].ID()),
			Object:  drbac.NewRole(w.orgs[i].ID(), "admin"),
		})
		w.bundles = append(w.bundles, bundle{d: d})
		adminProof[i] = drbac.ProofStep{Delegation: d}
	}
	w.addChurnFixtures()

	// Chains, round-robin over the orgs so every org ends up the same size.
	perChain := 6 + 1 + usersPerChain
	nchains := (n - len(w.bundles)) / perChain
	if nchains < norgs {
		nchains = norgs
	}
	heads := make([]*drbac.Proof, nchains) // registrar ⇒ head' support proofs
	for c := 0; c < nchains; c++ {
		o := c % norgs
		org := w.orgs[o]
		ch := chain{org: o, depth: 1}
		for r, l := 0, 4+g.rng.Intn(5); r < l; r++ {
			ch.roles = append(ch.roles, drbac.NewRole(org.ID(), fmt.Sprintf("c%dr%d", c, r)))
		}
		for r := 0; r+1 < len(ch.roles); r++ {
			t := drbac.Template{Subject: drbac.SubjectRole(ch.roles[r]), Object: ch.roles[r+1]}
			if g.rng.Float64() < attrEdgeShare {
				t.Attributes = []drbac.AttributeSetting{{
					Attr: bw(org), Op: drbac.OpMinimum, Value: float64(100 + g.rng.Intn(900)),
				}}
			}
			w.addEdge(org, t)
		}
		assign := g.issue(org, drbac.Template{
			Subject: drbac.SubjectRole(drbac.NewRole(org.ID(), "admin")),
			Object:  ch.roles[0].Assignment(),
		})
		w.bundles = append(w.bundles, bundle{d: assign})
		sup, err := drbac.NewProof(adminProof[o], drbac.ProofStep{Delegation: assign})
		if err != nil {
			panic(err)
		}
		heads[c] = sup
		w.chains = append(w.chains, ch)
	}

	// Coalition links, in org order so a chain's depth is final before its
	// own outgoing links are drawn. The target org issues the link: it
	// grants its own role to the partner's role, self-certified.
	byOrg := make([][]int, norgs)
	for c, ch := range w.chains {
		byOrg[ch.org] = append(byOrg[ch.org], c)
	}
	link := func(from drbac.Role, fromDepth int, src *chain) {
		island := src.org / islandOrgs
		later := (island+1)*islandOrgs - src.org - 1
		if later <= 0 {
			return
		}
		to := src.org + 1 + g.rng.Intn(later)
		if to >= norgs {
			return
		}
		dst := &w.chains[byOrg[to][g.rng.Intn(len(byOrg[to]))]]
		if fromDepth+len(dst.roles) > maxProofDepth {
			return
		}
		w.addEdge(w.orgs[to], drbac.Template{Subject: drbac.SubjectRole(from), Object: dst.roles[0]})
		if fromDepth+1 > dst.depth {
			dst.depth = fromDepth + 1
		}
	}
	for o := 0; o < norgs; o++ {
		for _, c := range byOrg[o] {
			ch := &w.chains[c]
			last := len(ch.roles) - 1
			if g.rng.Float64() < tailLinkShare {
				link(ch.roles[last], ch.depth+last, ch)
			}
			if g.rng.Float64() < midLinkShare {
				mid := 1 + g.rng.Intn(last-1)
				link(ch.roles[mid], ch.depth+mid, ch)
			}
		}
	}

	// User grants last: they are the bulk, and the third-party ones need
	// their support delegations published first.
	for c := range w.chains {
		ch := &w.chains[c]
		org := w.orgs[ch.org]
		for u := 0; u < usersPerChain; u++ {
			user := g.user("u", len(w.grants))
			t := drbac.Template{Subject: drbac.SubjectEntity(user), Object: ch.roles[0]}
			b := bundle{}
			if g.rng.Float64() < thirdPartyShare {
				b.d = g.issue(registrars[ch.org], t)
				b.support = []*drbac.Proof{heads[c]}
			} else {
				if g.rng.Float64() < attrGrantShare {
					t.Attributes = []drbac.AttributeSetting{{
						Attr:  drbac.AttributeRef{Namespace: org.ID(), Name: "quota"},
						Op:    drbac.OpSubtract,
						Value: float64(1 + g.rng.Intn(9)),
					}}
				}
				b.d = g.issue(org, t)
			}
			w.bundles = append(w.bundles, b)
			w.grants = append(w.grants, grant{user: user, chain: c})
		}
	}
	return w
}

// addEdge issues a role→role delegation and records it in the oracle.
func (w *authzWorld) addEdge(issuer *drbac.Identity, t drbac.Template) {
	w.bundles = append(w.bundles, bundle{d: w.g.issue(issuer, t)})
	w.next[t.Subject.Role] = append(w.next[t.Subject.Role], t.Object)
}

func (w *authzWorld) addChurnFixtures() {
	w.issuer = w.g.identity("Issuer", 0)
	for k := 0; k < churnServices; k++ {
		svc := drbac.NewRole(w.issuer.ID(), fmt.Sprintf("svc%d", k))
		tier := drbac.NewRole(w.issuer.ID(), fmt.Sprintf("tier%d", k))
		w.addEdge(w.issuer, drbac.Template{Subject: drbac.SubjectRole(svc), Object: tier})
		w.services = append(w.services, svc)
		w.tiers = append(w.tiers, tier)
	}
}

// reachable is the oracle: every role a holder of from also holds.
func (w *authzWorld) reachable(from drbac.Role) []drbac.Role {
	seen := map[drbac.Role]bool{from: true}
	order := []drbac.Role{from}
	for i := 0; i < len(order); i++ {
		for _, nx := range w.next[order[i]] {
			if !seen[nx] {
				seen[nx] = true
				order = append(order, nx)
			}
		}
	}
	return order
}

// pairs draws up to n distinct questions: 90% provable (a user against a
// role its chain reaches), 10% unprovable (a role on another island), a
// quarter carrying a bandwidth constraint. Every generated bw setting is at
// least 100 and the constraint asks for 50, so a constraint never changes
// the expected outcome — it only makes the wallet aggregate and prune.
//
// dense packs the questions onto as few users as cover them (about n/10),
// spread draws them from the whole world. A hot working set must be dense:
// it has to fit not only the proof cache but every memo on the path, and
// the wire codec's intern table holds 4,096 names — a thousand questions
// spread over the world name about that many, so whether the table thrashes
// would depend on the seed.
func (w *authzWorld) pairs(n int, dense bool) []pair {
	g := w.g
	var out []pair
	reach := make(map[int][]drbac.Role)
	for c, ch := range w.chains {
		reach[c] = w.reachable(ch.roles[0])
	}
	pos := n - n/10
	order := g.rng.Perm(len(w.grants))
	used := 0
	for _, gi := range order {
		if dense && len(out) >= pos {
			break
		}
		used++
		gr := w.grants[gi]
		for _, role := range reach[gr.chain] {
			out = append(out, pair{subject: drbac.SubjectEntity(gr.user), object: role, provable: true})
		}
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if len(out) > pos {
		out = out[:pos]
	}
	islands := (len(w.orgs) + islandOrgs - 1) / islandOrgs
	seen := make(map[[2]int]bool)
	for neg := len(out) / 9; neg > 0 && islands > 1; {
		gi, ci := order[g.rng.Intn(used)], g.rng.Intn(len(w.chains))
		gr, ch := w.grants[gi], w.chains[ci]
		if w.chains[gr.chain].org/islandOrgs == ch.org/islandOrgs || seen[[2]int{gi, ci}] {
			continue
		}
		seen[[2]int{gi, ci}] = true
		out = append(out, pair{
			subject: drbac.SubjectEntity(gr.user),
			object:  ch.roles[g.rng.Intn(len(ch.roles))],
		})
		neg--
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		if g.rng.Intn(4) == 0 {
			out[i].constraints = []drbac.Constraint{{
				Attr:    drbac.AttributeRef{Namespace: out[i].object.Namespace, Name: "bw"},
				Base:    math.Inf(1),
				Minimum: 50,
			}}
		}
	}
	return out
}

// fresh issues the n-th publication of publish and revoke — a new user granted
// one of the issuer's services — and the question that depends on it.
func (w *authzWorld) fresh(n int) (*drbac.Delegation, pair) {
	k := n % churnServices
	user := w.g.user("fresh", n)
	d := w.g.issue(w.issuer, drbac.Template{Subject: drbac.SubjectEntity(user), Object: w.services[k]})
	return d, pair{subject: drbac.SubjectEntity(user), object: w.tiers[k], provable: true}
}

// discoverChains is the number of distinct Figure 2 chains.
const discoverChains = 512

// discoverWorld is the three-wallet Figure 2 / §5 shape: for each chain,
// user → A.r → B.r → C.r → C.access, the credentials spread over the three
// home wallets and stitched together by discovery tags.
type discoverWorld struct {
	homes  [3]*drbac.Identity
	server *drbac.Identity // the resource server running discovery
	// perHome[h] is what home wallet h stores.
	perHome [3][]bundle
	// carried[i] is chain i's first credential, which the user presents to
	// the resource server directly (Figure 2, step 1).
	carried []*drbac.Delegation
	queries []pair
}

// buildDiscoverWorld needs the three listeners' addresses, since discovery
// tags name each role's home wallet by address.
func buildDiscoverWorld(seed int64, chains int, addrs [3]string) *discoverWorld {
	g := newGen(seed)
	w := &discoverWorld{server: g.identity("Server", 0)}
	for h := range w.homes {
		w.homes[h] = g.identity("Home", h)
	}
	tag := func(h int) *drbac.DiscoveryTag {
		return &drbac.DiscoveryTag{Home: addrs[h], TTL: 30 * time.Second, Subject: drbac.SubjectSearch}
	}
	a, b, c := w.homes[0], w.homes[1], w.homes[2]
	for i := 0; i < chains; i++ {
		name := fmt.Sprintf("r%d", i)
		ra, rb, rc := drbac.NewRole(a.ID(), name), drbac.NewRole(b.ID(), name), drbac.NewRole(c.ID(), name)
		access := drbac.NewRole(c.ID(), fmt.Sprintf("access%d", i))
		user := g.user("visitor", i)
		w.carried = append(w.carried, g.issue(a, drbac.Template{
			Subject: drbac.SubjectEntity(user), Object: ra, ObjectTag: tag(0),
		}))
		// Each coalition edge lives in its subject's home wallet, as in §5
		// where BigISP's wallet holds [BigISP.member → AirNet.member].
		w.perHome[0] = append(w.perHome[0], bundle{d: g.issue(b, drbac.Template{
			Subject: drbac.SubjectRole(ra), Object: rb, SubjectTag: tag(0), ObjectTag: tag(1),
			Attributes: []drbac.AttributeSetting{{Attr: bw(b), Op: drbac.OpMinimum, Value: 100}},
		})})
		w.perHome[1] = append(w.perHome[1], bundle{d: g.issue(c, drbac.Template{
			Subject: drbac.SubjectRole(rb), Object: rc, SubjectTag: tag(1), ObjectTag: tag(2),
		})})
		w.perHome[2] = append(w.perHome[2], bundle{d: g.issue(c, drbac.Template{
			Subject: drbac.SubjectRole(rc), Object: access, SubjectTag: tag(2),
		})})
		w.queries = append(w.queries, pair{
			subject:     drbac.SubjectEntity(user),
			object:      access,
			constraints: []drbac.Constraint{{Attr: bw(b), Base: math.Inf(1), Minimum: 50}},
			provable:    true,
		})
	}
	return w
}

// digest is the world's fingerprint: a hash over the sorted IDs of every
// delegation in it, support proofs included. A discovery tag names a home
// wallet by its listener's address, an ephemeral port the seed does not
// determine, so a tagged delegation goes in by the ID it would have without
// its tags.
func digest(bundles ...[]bundle) string {
	seen := make(map[drbac.DelegationID]bool)
	add := func(d *drbac.Delegation) {
		if d.SubjectTag != nil || d.ObjectTag != nil {
			// Every field gen.issue sets, but for the tags.
			d = &drbac.Delegation{Subject: d.Subject, Object: d.Object, Issuer: d.Issuer,
				Attributes: d.Attributes, IssuedAt: d.IssuedAt, Nonce: d.Nonce}
		}
		seen[d.ID()] = true
	}
	for _, bs := range bundles {
		for _, b := range bs {
			add(b.d)
			for _, p := range b.support {
				for _, d := range p.Delegations() {
					add(d)
				}
			}
		}
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		h.Write([]byte(id))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
