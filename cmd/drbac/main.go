// Command drbac is the dRBAC command-line tool: key generation, delegation
// issuance in the paper's concrete syntax, local verification, and remote
// wallet operations (publish, query, revoke) over the authenticated TCP
// transport.
//
// Usage:
//
//	drbac keygen   -name Alice -out alice.key
//	drbac export   -key alice.key            # directory entry JSON on stdout
//	drbac delegate -key bigisp.key -entities dir.json \
//	               -text "[Maria -> BigISP.member] BigISP" -out member.json
//	drbac show     -entities dir.json -in member.json
//	drbac verify   -entities dir.json -in member.json [-strict]
//	drbac publish  -key maria.key -addr host:port -in member.json [-ttl 30]
//	drbac query    -key maria.key -addr host:port -entities dir.json \
//	               -subject Maria -object BigISP.member
//	drbac revoke   -key bigisp.key -addr host:port -id <delegation-id>
//	drbac monitor  -key maria.key -addr host:port -id <delegation-id> [-count 1] [-wait 30s]
//	drbac stats    -key maria.key -addr host:port [-json]
//	drbac state    -state /var/lib/drbac/state [-json]   # offline, no daemon
//
// Every network command takes -timeout (default 30s), bounding the whole
// operation — dial, handshake, and RPCs — via context cancellation. The
// DRBAC_TIMEOUT environment variable supplies the default when the flag is
// not given. Ctrl-C cancels an in-flight operation immediately.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"drbac/internal/core"
	"drbac/internal/keyfile"
	"drbac/internal/obs"
	"drbac/internal/remote"
	"drbac/internal/subs"
	"drbac/internal/transport"
	"drbac/internal/wallet"
	"drbac/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "drbac:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: drbac <keygen|export|delegate|show|verify|publish|query|revoke|monitor|stats|trace|state|shardmap> [flags]")
	}
	// Ctrl-C / SIGTERM cancels whatever network operation is in flight.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "keygen":
		return cmdKeygen(rest)
	case "export":
		return cmdExport(rest)
	case "delegate":
		return cmdDelegate(rest)
	case "show":
		return cmdShow(rest)
	case "verify":
		return cmdVerify(rest)
	case "publish":
		return cmdPublish(ctx, rest)
	case "query":
		return cmdQuery(ctx, rest)
	case "revoke":
		return cmdRevoke(ctx, rest)
	case "monitor":
		return cmdMonitor(ctx, rest)
	case "stats":
		return cmdStats(ctx, rest)
	case "trace":
		return cmdTrace(ctx, rest)
	case "state":
		return cmdState(rest)
	case "shardmap":
		return cmdShardmap(rest)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// defaultTimeout bounds a network command when neither -timeout nor
// DRBAC_TIMEOUT says otherwise.
const defaultTimeout = 30 * time.Second

// timeoutFlag registers -timeout on fs. Resolution order: an explicitly
// given -timeout wins, then the DRBAC_TIMEOUT environment variable, then
// the 30s default. Call resolveTimeout after fs.Parse.
func timeoutFlag(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("timeout", defaultTimeout,
		"overall deadline for the operation (falls back to $DRBAC_TIMEOUT)")
}

func resolveTimeout(fs *flag.FlagSet, flagVal time.Duration) (time.Duration, error) {
	explicit := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "timeout" {
			explicit = true
		}
	})
	if explicit {
		return flagVal, nil
	}
	if env := os.Getenv("DRBAC_TIMEOUT"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			return 0, fmt.Errorf("invalid DRBAC_TIMEOUT %q: %w", env, err)
		}
		return d, nil
	}
	return flagVal, nil
}

// opContext applies the resolved timeout to the command's base context.
// A zero or negative timeout means no deadline (the signal context still
// cancels on Ctrl-C).
func opContext(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

func cmdKeygen(args []string) error {
	fs := flag.NewFlagSet("keygen", flag.ContinueOnError)
	name := fs.String("name", "", "entity display name")
	out := fs.String("out", "", "identity file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *out == "" {
		return errors.New("keygen: -name and -out are required")
	}
	f, err := keyfile.GenerateIdentity(*name)
	if err != nil {
		return err
	}
	if err := keyfile.WriteIdentity(*out, f); err != nil {
		return err
	}
	id, err := f.Identity()
	if err != nil {
		return err
	}
	fmt.Printf("created %s: %s (fingerprint %s)\n", *out, id.Name(), id.ID().Short())
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	key := fs.String("key", "", "identity file")
	fp := fs.Bool("fingerprint", false, "print only the full hex entity fingerprint")
	if err := fs.Parse(args); err != nil {
		return err
	}
	id, err := loadIdentity(*key)
	if err != nil {
		return err
	}
	if *fp {
		fmt.Println(id.ID())
		return nil
	}
	entry := keyfile.DirectoryEntry{Name: id.Name(), Key: id.Entity().Key}
	data, err := json.MarshalIndent(entry, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func cmdDelegate(args []string) error {
	fs := flag.NewFlagSet("delegate", flag.ContinueOnError)
	key := fs.String("key", "", "issuer identity file")
	entities := fs.String("entities", "", "directory file")
	text := fs.String("text", "", "delegation in paper syntax")
	out := fs.String("out", "", "bundle file to write")
	supportFiles := fs.String("support", "", "comma-free list: repeat -support is unsupported; pass one bundle path whose proof supports this delegation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *key == "" || *entities == "" || *text == "" || *out == "" {
		return errors.New("delegate: -key, -entities, -text, -out are required")
	}
	issuer, err := loadIdentity(*key)
	if err != nil {
		return err
	}
	dir, _, err := keyfile.ReadDirectory(*entities)
	if err != nil {
		return err
	}
	parsed, err := core.ParseDelegation(*text, dir)
	if err != nil {
		return err
	}
	if parsed.Issuer.ID() != issuer.ID() {
		return fmt.Errorf("delegation names issuer %s but key file is %s", parsed.Issuer.Name, issuer.Name())
	}
	d, err := core.Issue(issuer, parsed.Template, time.Now())
	if err != nil {
		return err
	}
	bundle := keyfile.Bundle{Delegation: d}
	if *supportFiles != "" {
		sb, err := keyfile.ReadBundle(*supportFiles)
		if err != nil {
			return err
		}
		p, err := core.NewProof(core.ProofStep{Delegation: sb.Delegation, Support: sb.Support})
		if err != nil {
			return err
		}
		bundle.Support = append(bundle.Support, p)
	}
	if err := keyfile.WriteBundle(*out, bundle); err != nil {
		return err
	}
	fmt.Printf("issued %s (%s)\n", d.ID().Short(), d.Kind())
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	entities := fs.String("entities", "", "directory file (optional)")
	in := fs.String("in", "", "bundle file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return errors.New("show: -in is required")
	}
	var dir core.Directory
	if *entities != "" {
		d, _, err := keyfile.ReadDirectory(*entities)
		if err != nil {
			return err
		}
		dir = d
	}
	b, err := keyfile.ReadBundle(*in)
	if err != nil {
		return err
	}
	pr := core.Printer{Dir: dir}
	fmt.Printf("id:   %s\nkind: %s\ntext: %s\n", b.Delegation.ID(), b.Delegation.Kind(), pr.Delegation(b.Delegation))
	for i, sp := range b.Support {
		fmt.Printf("support %d: %s => %s\n", i+1, pr.Subject(sp.Subject), pr.Role(sp.Object))
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	in := fs.String("in", "", "bundle file")
	strict := fs.Bool("strict", false, "require attribute-assignment rights")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return errors.New("verify: -in is required")
	}
	b, err := keyfile.ReadBundle(*in)
	if err != nil {
		return err
	}
	// A throwaway wallet performs full publication-grade validation.
	w := wallet.New(wallet.Config{StrictAttributes: *strict})
	if err := w.Publish(b.Delegation, b.Support...); err != nil {
		return fmt.Errorf("INVALID: %w", err)
	}
	fmt.Printf("OK: %s verifies (%s)\n", b.Delegation.ID().Short(), b.Delegation.Kind())
	return nil
}

func cmdPublish(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("publish", flag.ContinueOnError)
	key := fs.String("key", "", "identity file for transport auth")
	addr := fs.String("addr", "", "wallet address host:port[,host:port...] (first reachable wins)")
	in := fs.String("in", "", "bundle file")
	ttl := fs.Int("ttl", 0, "cache TTL seconds (0 = permanent)")
	timeout := timeoutFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *key == "" || *addr == "" || *in == "" {
		return errors.New("publish: -key, -addr, -in are required")
	}
	d, err := resolveTimeout(fs, *timeout)
	if err != nil {
		return err
	}
	ctx, cancel := opContext(ctx, d)
	defer cancel()
	b, err := keyfile.ReadBundle(*in)
	if err != nil {
		return err
	}
	at, err := withRedirects(ctx, *key, *addr, func(client *remote.Client) error {
		return client.Publish(ctx, b.Delegation, b.Support, time.Duration(*ttl)*time.Second)
	})
	if err != nil {
		return err
	}
	fmt.Printf("published %s to %s\n", b.Delegation.ID().Short(), at)
	return nil
}

func cmdQuery(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	key := fs.String("key", "", "identity file for transport auth")
	addr := fs.String("addr", "", "wallet address host:port[,host:port...] (first reachable wins)")
	entities := fs.String("entities", "", "directory file")
	subject := fs.String("subject", "", "entity name or role")
	object := fs.String("object", "", "role")
	timeout := timeoutFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *key == "" || *addr == "" || *entities == "" || *subject == "" || *object == "" {
		return errors.New("query: -key, -addr, -entities, -subject, -object are required")
	}
	d, err := resolveTimeout(fs, *timeout)
	if err != nil {
		return err
	}
	ctx, cancel := opContext(ctx, d)
	defer cancel()
	dir, _, err := keyfile.ReadDirectory(*entities)
	if err != nil {
		return err
	}
	subj, err := core.ParseSubject(*subject, dir)
	if err != nil {
		return err
	}
	obj, err := core.ParseRole(*object, dir)
	if err != nil {
		return err
	}
	client, err := dial(ctx, *key, *addr)
	if err != nil {
		return err
	}
	defer client.Close()
	// Mint a trace ID so the serving wallet can retain its spans for this
	// query — a slow or failed one is then fetchable via `drbac trace`.
	proof, err := client.QueryDirect(obs.ContextWithTrace(ctx, obs.TraceContext{TraceID: obs.NewTraceID()}), subj, obj, nil, 0)
	if err != nil {
		return err
	}
	if err := proof.Validate(core.ValidateOptions{At: time.Now()}); err != nil {
		return fmt.Errorf("returned proof does not validate: %w", err)
	}
	fmt.Print(core.Printer{Dir: dir}.Proof(proof))
	return nil
}

func cmdRevoke(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("revoke", flag.ContinueOnError)
	key := fs.String("key", "", "issuer identity file")
	addr := fs.String("addr", "", "wallet address host:port[,host:port...] (first reachable wins)")
	id := fs.String("id", "", "delegation ID")
	timeout := timeoutFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *key == "" || *addr == "" || *id == "" {
		return errors.New("revoke: -key, -addr, -id are required")
	}
	d, err := resolveTimeout(fs, *timeout)
	if err != nil {
		return err
	}
	ctx, cancel := opContext(ctx, d)
	defer cancel()
	at, err := withRedirects(ctx, *key, *addr, func(client *remote.Client) error {
		return client.Revoke(ctx, core.DelegationID(*id))
	})
	if err != nil {
		return err
	}
	fmt.Printf("revoked %s at %s\n", core.DelegationID(*id).Short(), at)
	return nil
}

func loadIdentity(path string) (*core.Identity, error) {
	if path == "" {
		return nil, errors.New("missing -key")
	}
	f, err := keyfile.ReadIdentity(path)
	if err != nil {
		return nil, err
	}
	return f.Identity()
}

// withRedirects dials addr and runs op against it, following shard-cluster
// redirects: a mis-routed mutation is refused with the owning shard's
// replica group, so the CLI re-dials there and retries — self-healing
// against a stale shard address without any cluster configuration. Hops
// are bounded; each redirect is reported on stderr. Returns the address
// group the operation finally ran against.
func withRedirects(ctx context.Context, keyPath, addr string, op func(*remote.Client) error) (string, error) {
	client, err := dial(ctx, keyPath, addr)
	if err != nil {
		return addr, err
	}
	defer func() { client.Close() }()
	for hop := 0; ; hop++ {
		err = op(client)
		var rd *remote.RedirectError
		if err == nil || !errors.As(err, &rd) || hop >= 3 || len(rd.Redirect.Addrs) == 0 {
			return addr, err
		}
		next := strings.Join(rd.Redirect.Addrs, ",")
		fmt.Fprintf(os.Stderr, "redirected to shard %d (%s)\n", rd.Redirect.Shard, next)
		client.Close()
		client, err = dial(ctx, keyPath, next)
		if err != nil {
			return next, err
		}
		addr = next
	}
}

// dial connects to the first reachable address in addr, which may be a
// comma-separated replica group ("primary,replica1,…"): reads served by any
// member are as trustworthy as the primary's, since every proof carries its
// own signatures (§9).
func dial(ctx context.Context, keyPath, addr string) (*remote.Client, error) {
	id, err := loadIdentity(keyPath)
	if err != nil {
		return nil, err
	}
	c, chosen, err := remote.DialAny(ctx, &transport.TCPDialer{Identity: id}, remote.SplitAddrs(addr))
	if err != nil {
		return nil, err
	}
	if chosen != addr {
		fmt.Fprintf(os.Stderr, "connected to %s\n", chosen)
	}
	return c, nil
}

// cmdStats fetches a remote wallet's metrics snapshot over the wire
// protocol's stats message and renders it.
func cmdStats(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	key := fs.String("key", "", "identity file for transport auth")
	addr := fs.String("addr", "", "wallet address host:port[,host:port...] (first reachable wins)")
	asJSON := fs.Bool("json", false, "emit the raw snapshot as JSON")
	timeout := timeoutFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *key == "" || *addr == "" {
		return errors.New("stats: -key and -addr are required")
	}
	d, err := resolveTimeout(fs, *timeout)
	if err != nil {
		return err
	}
	ctx, cancel := opContext(ctx, d)
	defer cancel()
	client, err := dial(ctx, *key, *addr)
	if err != nil {
		return err
	}
	defer client.Close()
	resp, err := client.Stats(ctx)
	if err != nil {
		return err
	}
	if *asJSON {
		data, err := json.MarshalIndent(resp, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	renderStats(os.Stdout, *addr, resp)
	return nil
}

// statsRows are the summary sections of `drbac stats`, in print order:
// each row shows a registry family (a row of internal/obs/help.go) from the
// answer's snapshot under a short label, and a family shown here is not
// listed again under counters or gauges. Rows of the untitled section
// continue the wallet heading. A row whose family the snapshot lacks is
// left out, and so is a section title with no row present.
var statsRows = []struct{ section, label, family string }{
	{"", "delegations", "drbac_wallet_delegations"},
	{"", "revoked", "drbac_wallet_revoked"},
	{"", "ttl-tracked", "drbac_wallet_ttl_tracked"},
	{"", "watches", "drbac_wallet_watches"},
	{"proof cache", "hits", "drbac_wallet_cache_hits"},
	{"proof cache", "misses", "drbac_wallet_cache_misses"},
	{"proof cache", "invalidated", "drbac_wallet_cache_invalidations"},
	{"proof cache", "entries", "drbac_wallet_cache_entries"},
	{"proof cache", "negatives", "drbac_wallet_cache_negatives"},
	{"sig cache", "hits", "drbac_sigcache_hits"},
	{"sig cache", "misses", "drbac_sigcache_misses"},
	{"sig cache", "evictions", "drbac_sigcache_evictions"},
	{"sig cache", "size", "drbac_sigcache_size"},
	{"cluster", "epoch", "drbac_cluster_epoch"},
	{"cluster", "shards", "drbac_cluster_shards"},
	{"cluster", "adoptions", "drbac_cluster_map_adoptions_total"},
	{"cluster", "routes", "drbac_cluster_routes_total"},
	{"cluster", "redirects", "drbac_cluster_redirects_total"},
	{"cluster", "scatters", "drbac_cluster_scatter_total"},
}

// renderStats pretty-prints a stats response: the wallet heading and the
// summary sections, then every other metric the remote registry holds,
// names sorted.
func renderStats(w io.Writer, addr string, resp wire.StatsResp) {
	fmt.Fprintf(w, "wallet %s\n", addr)
	if resp.Role != "" {
		fmt.Fprintf(w, "  %-12s %s\n", "role", resp.Role)
	}
	fmt.Fprintf(w, "  %-12s %d\n", "seq", resp.Seq)
	// What a section shows is left out of the counters and gauges lists.
	counters, gauges := maps.Clone(resp.Metrics.Counters), maps.Clone(resp.Metrics.Gauges)
	section := ""
	for _, row := range statsRows {
		v, ok := resp.Metrics.Counters[row.family]
		if !ok {
			v, ok = resp.Metrics.Gauges[row.family]
		}
		delete(counters, row.family)
		delete(gauges, row.family)
		if !ok {
			continue
		}
		if row.section != section {
			section = row.section
			fmt.Fprintf(w, "%s\n", section)
		}
		fmt.Fprintf(w, "  %-12s %d\n", row.label, v)
	}
	if ws := resp.Wire; ws != nil {
		fmt.Fprintf(w, "wire codec (connection: %s)\n", ws.ConnCodec)
		fmt.Fprintf(w, "  bin frames   %d enc / %d dec (%d / %d bytes)\n",
			ws.BinaryFramesEncoded, ws.BinaryFramesDecoded, ws.BinaryBytesEncoded, ws.BinaryBytesDecoded)
		fmt.Fprintf(w, "  delegations  %d hits / %d misses\n", ws.DelegationHits, ws.DelegationMisses)
		fmt.Fprintf(w, "  pool         %d gets / %d puts / %d discards / %d news\n",
			ws.Pool.Gets, ws.Pool.Puts, ws.Pool.Discards, ws.Pool.News)
	}
	if len(counters) > 0 {
		fmt.Fprintf(w, "counters\n")
		for _, name := range sortedNames(counters) {
			fmt.Fprintf(w, "  %-44s %d\n", name, counters[name])
		}
	}
	if len(gauges) > 0 {
		fmt.Fprintf(w, "gauges\n")
		for _, name := range sortedNames(gauges) {
			fmt.Fprintf(w, "  %-44s %d\n", name, gauges[name])
		}
	}
	if len(resp.Metrics.Histograms) > 0 {
		fmt.Fprintf(w, "histograms\n")
		for _, name := range sortedNames(resp.Metrics.Histograms) {
			h := resp.Metrics.Histograms[name]
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Fprintf(w, "  %-44s count=%d mean=%.3fms\n", name, h.Count, mean*1000)
		}
	}
	if len(resp.Metrics.Infos) > 0 {
		fmt.Fprintf(w, "info\n")
		for _, name := range sortedNames(resp.Metrics.Infos) {
			labels := resp.Metrics.Infos[name]
			fmt.Fprintf(w, "  %-44s", name)
			for _, k := range sortedNames(labels) {
				fmt.Fprintf(w, " %s=%s", k, labels[k])
			}
			fmt.Fprintln(w)
		}
	}
}

// cmdTrace fetches one retained trace's spans from every listed wallet and
// renders the merged cross-wallet waterfall. A distributed discovery leaves
// its spans scattered — the originating query span and its rpc children on
// one wallet, the serve spans on the wallets it contacted — so the CLI
// re-assembles what no single /debug/traces endpoint can show.
func cmdTrace(ctx context.Context, args []string) error {
	// The trace ID is positional (flag parsing stops at the first
	// non-flag), accepted before or after the flags.
	var id string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		id, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	key := fs.String("key", "", "identity file for transport auth")
	addr := fs.String("addr", "", "wallet addresses host:port[,host:port...]; each is queried and the spans merged")
	asJSON := fs.Bool("json", false, "emit the merged span tree as JSON")
	timeout := timeoutFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if id == "" {
		id = fs.Arg(0)
	}
	if id == "" {
		return errors.New("trace: usage: drbac trace <trace-id> -key <file> -addr <addr[,addr...]>")
	}
	if *key == "" || *addr == "" {
		return errors.New("trace: -key and -addr are required")
	}
	d, err := resolveTimeout(fs, *timeout)
	if err != nil {
		return err
	}
	ctx, cancel := opContext(ctx, d)
	defer cancel()
	ident, err := loadIdentity(*key)
	if err != nil {
		return err
	}
	dialer := &transport.TCPDialer{Identity: ident}
	var spans []obs.SpanRecord
	seen := make(map[string]bool)
	found := 0
	for _, a := range remote.SplitAddrs(*addr) {
		c, err := remote.Dial(ctx, dialer, a)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %s unreachable: %v\n", a, err)
			continue
		}
		resp, err := c.Trace(ctx, id)
		c.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %s: %v\n", a, err)
			continue
		}
		if resp.Found {
			found++
		}
		for _, sp := range resp.Spans {
			if seen[sp.SpanID] {
				continue
			}
			seen[sp.SpanID] = true
			if sp.Attrs == nil {
				sp.Attrs = make(map[string]string)
			}
			sp.Attrs["from"] = a
			spans = append(spans, sp)
		}
	}
	if len(spans) == 0 {
		return fmt.Errorf("trace %s: not retained by any of the %d wallet(s) — it may have been sampled out or evicted", id, len(remote.SplitAddrs(*addr)))
	}
	if *asJSON {
		data, err := json.MarshalIndent(obs.BuildSpanTree(spans), "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	renderTrace(os.Stdout, id, found, spans)
	return nil
}

// renderTrace prints the merged waterfall: one line per span, offset from
// the earliest span start, indented by tree depth. Offsets across wallets
// are subject to clock skew, so a remote serve span can print a slightly
// earlier offset than its parent rpc span.
func renderTrace(w io.Writer, id string, wallets int, spans []obs.SpanRecord) {
	var t0 time.Time
	var total int64
	for _, sp := range spans {
		if t0.IsZero() || sp.Start.Before(t0) {
			t0 = sp.Start
		}
	}
	for _, sp := range spans {
		if end := sp.Start.Sub(t0).Microseconds() + sp.DurationUS; end > total {
			total = end
		}
	}
	fmt.Fprintf(w, "trace %s  spans=%d  wallets=%d  duration=%.3fms\n",
		id, len(spans), wallets, float64(total)/1000)
	var walk func(nodes []*obs.SpanNode, depth int)
	walk = func(nodes []*obs.SpanNode, depth int) {
		for _, n := range nodes {
			off := float64(n.Start.Sub(t0).Microseconds()) / 1000
			fmt.Fprintf(w, "  %9.3f  +%9.3f  %s%s", off, float64(n.DurationUS)/1000,
				strings.Repeat("  ", depth), n.Name)
			for _, k := range sortedNames(n.Attrs) {
				if k == "from" {
					continue
				}
				fmt.Fprintf(w, " %s=%s", k, n.Attrs[k])
			}
			if from := n.Attrs["from"]; from != "" {
				fmt.Fprintf(w, "  [%s]", from)
			}
			if n.Err != "" {
				fmt.Fprintf(w, "  ERROR: %s", n.Err)
			}
			fmt.Fprintln(w)
			walk(n.Children, depth+1)
		}
	}
	walk(obs.BuildSpanTree(spans), 0)
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cmdMonitor subscribes to a delegation's status at a remote wallet
// (§4.2.2) and prints pushed updates until count events arrive or the wait
// deadline passes.
func cmdMonitor(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("monitor", flag.ContinueOnError)
	key := fs.String("key", "", "identity file for transport auth")
	addr := fs.String("addr", "", "wallet address host:port[,host:port...] (first reachable wins)")
	id := fs.String("id", "", "delegation ID")
	count := fs.Int("count", 1, "exit after this many status events")
	wait := fs.Duration("wait", 30*time.Second, "maximum time to wait")
	timeout := timeoutFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *key == "" || *addr == "" || *id == "" {
		return errors.New("monitor: -key, -addr, -id are required")
	}
	// -timeout bounds the setup RPCs (dial, subscribe); -wait bounds how
	// long we then listen for pushes.
	d, err := resolveTimeout(fs, *timeout)
	if err != nil {
		return err
	}
	setupCtx, cancelSetup := opContext(ctx, d)
	defer cancelSetup()
	client, err := dial(setupCtx, *key, *addr)
	if err != nil {
		return err
	}
	defer client.Close()

	events := make(chan subs.Event, 16)
	cancel, err := client.Subscribe(setupCtx, core.DelegationID(*id), func(ev subs.Event) {
		events <- ev
	})
	if err != nil {
		return err
	}
	defer cancel()
	fmt.Printf("monitoring %s at %s (%d event(s), up to %v)\n",
		core.DelegationID(*id).Short(), *addr, *count, *wait)

	deadline := time.After(*wait)
	for seen := 0; seen < *count; {
		select {
		case ev := <-events:
			seen++
			fmt.Printf("%s delegation %s: %s\n",
				ev.At.Format(time.RFC3339), ev.Delegation.Short(), ev.Kind)
		case <-deadline:
			return fmt.Errorf("monitor: timed out after %v with %d event(s)", *wait, seen)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
