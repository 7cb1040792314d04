// drbac shardmap — author and inspect cluster shard maps (SPEC §12).
// A shard map is the unit of cluster configuration: drbacd loads it via
// -cluster (shard:N@MAP or gateway@MAP) and re-reads it on mtime change, so
// `init` stands a cluster up and `split` + a file rollout reshard it live.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"drbac/internal/cluster"
	"drbac/internal/core"
	"drbac/internal/keyfile"
)

// groupList collects repeated -group flags, each one replica group
// ("addr" or "addr,addr").
type groupList [][]string

func (g *groupList) String() string { return fmt.Sprintf("%v", [][]string(*g)) }

func (g *groupList) Set(v string) error {
	var addrs []string
	for _, a := range strings.Split(v, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return errors.New("empty replica group")
	}
	*g = append(*g, addrs)
	return nil
}

func cmdShardmap(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: drbac shardmap <init|split|show|owner> [flags]")
	}
	switch args[0] {
	case "init":
		return shardmapInit(args[1:])
	case "split":
		return shardmapSplit(args[1:])
	case "show":
		return shardmapShow(args[1:])
	case "owner":
		return shardmapOwner(args[1:])
	default:
		return fmt.Errorf("shardmap: unknown action %q (want init, split, show, owner)", args[0])
	}
}

func shardmapInit(args []string) error {
	fs := flag.NewFlagSet("shardmap init", flag.ContinueOnError)
	var groups groupList
	fs.Var(&groups, "group", "replica group for the next shard, \"addr[,addr...]\" (repeat per shard)")
	out := fs.String("out", "", "shard map file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(groups) == 0 || *out == "" {
		return errors.New("shardmap init: at least one -group and -out are required")
	}
	m, err := cluster.Uniform(groups)
	if err != nil {
		return err
	}
	if err := writeShardMap(*out, m); err != nil {
		return err
	}
	fmt.Printf("wrote %s: epoch %d, %d shard(s)\n", *out, m.Epoch, len(m.Shards))
	return nil
}

func shardmapSplit(args []string) error {
	fs := flag.NewFlagSet("shardmap split", flag.ContinueOnError)
	in := fs.String("in", "", "shard map file to split")
	shard := fs.Int("shard", -1, "source shard ID to split")
	newID := fs.Int("new-id", -1, "ID of the shard carved out of -shard")
	var groups groupList
	fs.Var(&groups, "group", "replica group of the new shard, \"addr[,addr...]\"")
	out := fs.String("out", "", "file for the bumped-epoch map (may equal -in)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *shard < 0 || *newID < 0 || len(groups) != 1 || *out == "" {
		return errors.New("shardmap split: -in, -shard, -new-id, one -group, and -out are required")
	}
	m, err := readShardMap(*in)
	if err != nil {
		return err
	}
	next, err := m.Split(*shard, *newID, groups[0])
	if err != nil {
		return err
	}
	if err := writeShardMap(*out, next); err != nil {
		return err
	}
	fmt.Printf("wrote %s: epoch %d, %d shard(s); shard %d carved out of shard %d\n",
		*out, next.Epoch, len(next.Shards), *newID, *shard)
	fmt.Println("roll the file out to every member and gateway; members adopt it on the next sweep")
	return nil
}

func shardmapShow(args []string) error {
	fs := flag.NewFlagSet("shardmap show", flag.ContinueOnError)
	in := fs.String("in", "", "shard map file to inspect")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return errors.New("shardmap show: -in is required")
	}
	m, err := readShardMap(*in)
	if err != nil {
		return err
	}
	fmt.Printf("shard map %s\n", *in)
	fmt.Printf("  epoch   %d\n", m.Epoch)
	fmt.Printf("  shards  %d\n", len(m.Shards))
	points := make(map[int]int)
	for _, p := range m.Points {
		points[p.Shard]++
	}
	ids := make([]int, 0, len(m.Shards))
	for _, s := range m.Shards {
		ids = append(ids, s.ID)
	}
	sort.Ints(ids)
	for _, id := range ids {
		s, _ := m.ShardByID(id)
		fmt.Printf("  shard %-3d points=%-3d addrs=%s\n", id, points[id], strings.Join(s.Addrs, ","))
	}
	return nil
}

func shardmapOwner(args []string) error {
	fs := flag.NewFlagSet("shardmap owner", flag.ContinueOnError)
	in := fs.String("in", "", "shard map file")
	entities := fs.String("entities", "", "directory file")
	subject := fs.String("subject", "", "entity name or role whose home shard to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *entities == "" || *subject == "" {
		return errors.New("shardmap owner: -in, -entities, -subject are required")
	}
	m, err := readShardMap(*in)
	if err != nil {
		return err
	}
	dir, _, err := keyfile.ReadDirectory(*entities)
	if err != nil {
		return err
	}
	subj, err := core.ParseSubject(*subject, dir)
	if err != nil {
		return err
	}
	s := m.Owner(cluster.RouteKey(subj))
	fmt.Printf("subject %s -> shard %d (%s) at epoch %d\n",
		*subject, s.ID, strings.Join(s.Addrs, ","), m.Epoch)
	return nil
}

func readShardMap(path string) (*cluster.Map, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return cluster.ParseMap(raw)
}

func writeShardMap(path string, m *cluster.Map) error {
	raw, err := m.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
