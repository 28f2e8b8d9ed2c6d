package main

import (
	"fmt"

	"amber/internal/core"
	"amber/internal/gaddr"
	"amber/internal/transport"
)

// cluster is n Amber nodes in this process, each with its own TCP listener
// on the loopback interface, meshed the way cmd/amberd meshes processes.
type cluster struct {
	nodes []*core.Node
	trs   []*transport.TCP
}

// newCluster builds the nodes. With a recorder, each node's transport is
// wrapped in a tap so the traced run sees every message.
func newCluster(n, procs int, reg *core.Registry, rec *recorder) (*cluster, error) {
	cl := &cluster{}
	for i := 0; i < n; i++ {
		tr, err := transport.NewTCP(transport.TCPConfig{Self: gaddr.NodeID(i), Listen: "127.0.0.1:0"})
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.trs = append(cl.trs, tr)
	}
	for i, tr := range cl.trs {
		peers := make(map[gaddr.NodeID]string)
		for j, other := range cl.trs {
			if j != i {
				peers[gaddr.NodeID(j)] = other.Addr()
			}
		}
		tr.SetPeers(peers)
	}
	for i := 0; i < n; i++ {
		var srv *gaddr.Server
		if i == 0 {
			srv = gaddr.NewServer(0)
		}
		var tr transport.Transport = cl.trs[i]
		if rec != nil {
			tr = &tap{tr: cl.trs[i], rec: rec}
		}
		node, err := core.NewNode(core.NodeConfig{ID: gaddr.NodeID(i), Procs: procs, ServerNode: 0}, reg, tr, srv)
		if err != nil {
			cl.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		cl.nodes = append(cl.nodes, node)
	}
	return cl, nil
}

func (cl *cluster) close() {
	for _, n := range cl.nodes {
		n.Close()
	}
	for _, tr := range cl.trs {
		tr.Close()
	}
}

// wireTotals sums the transports' own counts of messages and bytes sent.
func (cl *cluster) wireTotals() (msgs, bytes int64) {
	for _, tr := range cl.trs {
		st := tr.Stats()
		msgs += st.Value("msgs_sent")
		bytes += st.Value("bytes_sent")
	}
	return msgs, bytes
}

// counterSums adds up every node's core, rpc, scheduler and object-space
// counters under one prefix each, plus node 0's own core counters under
// "node0.", so deltas can be taken across a window.
func (cl *cluster) counterSums() map[string]int64 {
	out := make(map[string]int64)
	for _, n := range cl.nodes {
		for k, v := range n.Stats().Snapshot() {
			out["core."+k] += v
		}
		for k, v := range n.RPCStats().Snapshot() {
			out["rpc."+k] += v
		}
		for k, v := range n.Scheduler().Stats().Snapshot() {
			out["sched."+k] += v
		}
		for k, v := range n.SpaceStats() {
			out["objspace."+k] += v
		}
	}
	for k, v := range cl.nodes[0].Stats().Snapshot() {
		out["node0."+k] = v
	}
	return out
}
