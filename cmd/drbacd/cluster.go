// Shard-cluster membership for drbacd: -cluster shard:N@MAP names a shard
// map file and this member's shard in it. The daemon then serves under a
// cluster guard (epoch advertised on connect, mis-routed or stale-epoch
// mutations refused with redirects) and re-reads the map file whenever its
// mtime changes, adopting newer epochs live — resharding is a map-file
// rollout, not a restart.
package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"drbac/internal/cluster"
	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/transport"
)

// clusterSpec is the parsed -cluster flag; the zero value (no map path)
// means the daemon is not a cluster participant.
type clusterSpec struct {
	gateway bool
	shard   int // this member's shard ID; meaningful when !gateway
	mapPath string
}

// parseClusterSpec reads "shard:N@MAP" or "gateway@MAP" ("" is the zero
// spec); ok is false for anything else.
func parseClusterSpec(v string) (spec clusterSpec, ok bool) {
	if v == "" {
		return clusterSpec{}, true
	}
	role, path, found := strings.Cut(v, "@")
	if !found || path == "" {
		return clusterSpec{}, false
	}
	if role == "gateway" {
		return clusterSpec{gateway: true, mapPath: path}, true
	}
	n, isShard := strings.CutPrefix(role, "shard:")
	id, err := strconv.Atoi(n)
	if !isShard || err != nil || id < 0 {
		return clusterSpec{}, false
	}
	return clusterSpec{shard: id, mapPath: path}, true
}

// mapAdopter is the piece of cluster state a map-file rollout feeds:
// both a member's *cluster.Node and a gateway's *cluster.Router adopt
// strictly-newer maps and expose the one they serve under.
type mapAdopter interface {
	Adopt(*cluster.Map) bool
	Current() *cluster.Map
}

// shardMapWatcher tracks the on-disk shard map backing a cluster
// participant. Its poll runs on the daemon's sweep ticker; its health
// feeds /readyz — a participant whose map file is unreadable,
// unparsable, or ahead of what it could adopt (e.g. the new map dropped
// this member's shard) should be out of rotation until an operator
// intervenes.
type shardMapWatcher struct {
	path    string
	adopter mapAdopter
	// onAdopt, if set, fires after a newer map is adopted from the file —
	// the DHT re-announce hook (set once before the sweep loop starts).
	onAdopt func()

	mu        sync.Mutex
	mtime     time.Time
	fileEpoch uint64 // epoch last seen in the file, adopted or not
	err       error  // last read/parse failure, nil when healthy
}

// readMapFile loads and validates the shard map at path.
func readMapFile(path string) (*cluster.Map, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := cluster.ParseMap(raw)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return m, nil
}

// newMapWatcher builds a watcher over path feeding the given adopter.
func newMapWatcher(path string, epoch uint64, adopter mapAdopter) *shardMapWatcher {
	sw := &shardMapWatcher{path: path, adopter: adopter, fileEpoch: epoch}
	if fi, err := os.Stat(path); err == nil {
		sw.mtime = fi.ModTime()
	}
	return sw
}

// newShardMember loads the map file and builds the member's cluster node
// plus its file watcher.
func newShardMember(path string, id int, o *obs.Obs) (*cluster.Node, *shardMapWatcher, error) {
	m, err := readMapFile(path)
	if err != nil {
		return nil, nil, err
	}
	node, err := cluster.NewNode(id, m, o)
	if err != nil {
		return nil, nil, err
	}
	return node, newMapWatcher(path, m.Epoch, node), nil
}

// newClusterGateway loads the map file and builds a routing gateway over
// the cluster plus its file watcher. The gateway dials shards as the
// daemon's own identity.
func newClusterGateway(path string, owner *core.Identity, wirePol transport.CodecPolicy, o *obs.Obs, rt *dhtRuntime) (*cluster.Wallet, *shardMapWatcher, error) {
	m, err := readMapFile(path)
	if err != nil {
		return nil, nil, err
	}
	cfg := cluster.WalletConfig{
		RouterConfig: cluster.RouterConfig{
			Map:    m,
			Dialer: &transport.TCPDialer{Identity: owner, Codec: wirePol},
			Obs:    o,
		},
		Identity: owner,
	}
	if rt != nil {
		// dht:<fingerprint> replica-group members resolve through the
		// daemon's DHT node. Guarded so a nil runtime never becomes a
		// typed-nil interface.
		cfg.Homes = rt.node
	}
	gw, err := cluster.NewWallet(cfg)
	if err != nil {
		return nil, nil, err
	}
	return gw, newMapWatcher(path, m.Epoch, gw.Router()), nil
}

// poll re-reads the map file when its mtime moved and adopts strictly
// newer maps. Failures are recorded for the readiness probe, not fatal:
// the member keeps serving under its installed map.
func (sw *shardMapWatcher) poll(o *obs.Obs) {
	fi, err := os.Stat(sw.path)
	if err != nil {
		sw.setErr(fmt.Errorf("stat: %w", err))
		return
	}
	sw.mu.Lock()
	unchanged := fi.ModTime().Equal(sw.mtime)
	sw.mu.Unlock()
	if unchanged {
		return
	}
	m, err := readMapFile(sw.path)
	if err != nil {
		sw.setErr(err)
		return
	}
	adopted := sw.adopter.Adopt(m)
	sw.mu.Lock()
	sw.mtime = fi.ModTime()
	sw.fileEpoch = m.Epoch
	sw.err = nil
	sw.mu.Unlock()
	if adopted {
		o.Log().Info("shard map adopted from file",
			"path", sw.path, "epoch", m.Epoch, "shards", len(m.Shards))
		if sw.onAdopt != nil {
			sw.onAdopt()
		}
	}
}

func (sw *shardMapWatcher) setErr(err error) {
	sw.mu.Lock()
	sw.err = err
	sw.mu.Unlock()
}

// notReady reports why this member should be out of rotation, "" when
// healthy: the map file failed its last poll, or the file carries an epoch
// the member could not adopt (a rolled-out map that no longer names this
// shard), leaving it serving stale routing state.
func (sw *shardMapWatcher) notReady() string {
	if sw == nil {
		return ""
	}
	sw.mu.Lock()
	err, fileEpoch := sw.err, sw.fileEpoch
	sw.mu.Unlock()
	if err != nil {
		return fmt.Sprintf("cluster: shard map %s unfetchable: %v", sw.path, err)
	}
	if cur := sw.adopter.Current().Epoch; fileEpoch > cur {
		return fmt.Sprintf("cluster: shard map stale: file epoch %d not adopted (serving %d)", fileEpoch, cur)
	}
	return ""
}
