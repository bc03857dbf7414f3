// This file is the control wire's schema. Every record is written once, as
// the ordered list of its fields, and runs in either direction — an encoder
// and a decoder cannot disagree about a field's position or width when they
// are the same lines. Signed numbers (ints, durations, enums) travel as
// zig-zag varints, unsigned ones as uvarints, float64 as its IEEE bits, maps
// sorted, optional pointers behind a presence flag; counts are validated
// against the remaining payload before anything is read, and DecodeFrame's
// Close rejects trailing bytes.
//
// Adding a wire message is a row in codec's kind table, a constructor in
// newMessage, a kind and a fields method here, and a sample in
// sampleMessages(). The directive below opts the package into dice-vet's
// codecpin coverage rule, so a field added to any external struct these
// records walk fails vet until the records (and WireVersion) follow.
//
//dice:codec

package control

import (
	"math"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/federation"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/topology"
)

// RemoteResultOf and Result copy the wire-safe subset of dice.Result and
// deliberately leave the snapshot provenance fields behind.
//
//dice:fieldpin dice.Result
const resultFieldCount = 13

// rw is one direction of the wire: exactly one of w and r is set.
type rw struct {
	w *codec.Writer
	r *codec.Reader
}

func num[T ~int | ~int64](c rw, p *T) {
	if c.w != nil {
		c.w.Varint(int64(*p))
	} else {
		*p = T(c.r.Varint())
	}
}

func unum[T ~uint8 | ~uint32](c rw, p *T) {
	if c.w != nil {
		c.w.Uvarint(uint64(*p))
	} else if v := c.r.Uvarint(); v > uint64(^T(0)) {
		c.r.Fail("value %d overflows its field", v)
	} else {
		*p = T(v)
	}
}

func (c rw) str(p *string) {
	if c.w != nil {
		c.w.String(*p)
	} else {
		*p = c.r.String()
	}
}

func (c rw) strs(p *[]string) {
	if c.w != nil {
		codec.PutStrings(c.w, *p)
	} else {
		*p = codec.Strings(c.r)
	}
}

func (c rw) flag(p *bool) {
	if c.w != nil {
		c.w.Bool(*p)
	} else {
		*p = c.r.Bool()
	}
}

func (c rw) blob(p *[]byte) {
	if c.w != nil {
		c.w.Blob(*p)
	} else {
		*p = c.r.Blob()
	}
}

func (c rw) hash(p *[32]byte) {
	b := p[:]
	c.blob(&b)
	if c.r == nil || c.r.Err() != nil {
		return
	}
	if len(b) != len(p) {
		c.r.Fail("hash of %d bytes, want %d", len(b), len(p))
		return
	}
	copy(p[:], b)
}

func (c rw) f64(p *float64) {
	if c.w != nil {
		c.w.Uvarint(math.Float64bits(*p))
	} else {
		*p = math.Float64frombits(c.r.Uvarint())
	}
}

func (c rw) regions(p *map[string][]byte) {
	if c.w != nil {
		codec.PutBlobMap(c.w, *p)
	} else {
		*p = codec.BlobMap(c.r)
	}
}

func (c rw) inFlight(p *[]netem.QueuedMessage) {
	if c.w != nil {
		checkpoint.PutInFlight(c.w, *p)
	} else {
		*p = checkpoint.InFlight(c.r)
	}
}

// slice runs each over a counted run of records; zero count decodes to nil.
// Decoding grows the slice as records parse instead of sizing it from the
// count, so a hostile count costs nothing beyond the bytes that back it.
func slice[T any](c rw, p *[]T, each func(rw, *T)) {
	if c.w != nil {
		c.w.Uvarint(uint64(len(*p)))
		for i := range *p {
			each(c, &(*p)[i])
		}
		return
	}
	*p = nil
	for i, n := 0, c.r.Count(); i < n && c.r.Err() == nil; i++ {
		var v T
		each(c, &v)
		*p = append(*p, v)
	}
}

// opt runs each over an optional record behind a presence flag.
func opt[T any](c rw, p **T, each func(rw, *T)) {
	present := *p != nil
	c.flag(&present)
	if !present {
		*p = nil
		return
	}
	if *p == nil {
		*p = new(T)
	}
	each(c, *p)
}

func (*Hello) kind() byte           { return codec.KindHello }
func (*Welcome) kind() byte         { return codec.KindWelcome }
func (*BaselineRequest) kind() byte { return codec.KindBaselineRequest }
func (*Baseline) kind() byte        { return codec.KindBaseline }
func (*LeaseRequest) kind() byte    { return codec.KindLeaseRequest }
func (*Lease) kind() byte           { return codec.KindLease }
func (*NoWork) kind() byte          { return codec.KindNoWork }
func (*Heartbeat) kind() byte       { return codec.KindHeartbeat }
func (*HeartbeatAck) kind() byte    { return codec.KindHeartbeatAck }
func (*ShardResult) kind() byte     { return codec.KindShardResult }
func (*ResultAck) kind() byte       { return codec.KindResultAck }

func (m *BaselineRequest) fields(c rw) { c.str(&m.AgentID) }
func (m *LeaseRequest) fields(c rw)    { c.str(&m.AgentID) }
func (m *Heartbeat) fields(c rw)       { c.str(&m.AgentID) }
func (m *NoWork) fields(c rw)          { c.flag(&m.Done) }
func (m *HeartbeatAck) fields(c rw)    { c.flag(&m.Cancel) }
func (m *ResultAck) fields(c rw)       { c.flag(&m.Accepted) }

func (m *Hello) fields(c rw) {
	c.str(&m.Agent)
	c.strs(&m.Backends)
	num(c, &m.Workers)
}

func (m *Welcome) fields(c rw) {
	c.str(&m.AgentID)
	c.str(&m.Campaign)
	num(c, &m.HeartbeatEvery)
	num(c, &m.LeaseTTL)
}

func (m *Baseline) fields(c rw) {
	c.str(&m.Campaign)
	c.str(&m.Topo.Name)
	slice(c, &m.Topo.Nodes, func(c rw, n *topology.Node) {
		c.str(&n.Name)
		unum(c, &n.AS)
		unum(c, &n.RouterID)
		num(c, &n.Tier)
		slice(c, &n.Prefixes, prefix)
		c.str(&n.Impl)
	})
	slice(c, &m.Topo.Links, func(c rw, l *topology.Link) {
		c.str(&l.A)
		c.str(&l.B)
		num(c, &l.Rel)
		num(c, &l.Delay)
		num(c, &l.Jitter)
		c.f64(&l.Loss)
	})
	c.blob(&m.Snapshot)
	c.hash(&m.SnapshotSHA256)
	spec(c, &m.Spec)
}

func (m *Lease) fields(c rw) {
	num(c, &m.Shard)
	num(c, &m.Attempt)
	slice(c, &m.UnitIndexes, func(c rw, i *int) { num(c, i) })
	slice(c, &m.Units, func(c rw, u *dice.Unit) {
		c.str(&u.Explorer)
		c.str(&u.FromPeer)
		num(c, &u.MaxInputs)
		num(c, &u.FuzzSeeds)
		num(c, &u.Seed)
		c.str(&u.Domain)
	})
	num(c, &m.Delta.At)
	c.flag(&m.Delta.Consistent)
	c.inFlight(&m.Delta.InFlight)
	slice(c, &m.Delta.Patches, func(c rw, p *checkpoint.NodePatch) {
		c.str(&p.Node)
		c.str(&p.Impl)
		num(c, &p.PrefixLen)
		num(c, &p.SuffixLen)
		c.blob(&p.Patch)
		num(c, &p.FullLen)
		c.hash((*[32]byte)(&p.FullHash))
	})
}

func (m *ShardResult) fields(c rw) {
	c.str(&m.AgentID)
	num(c, &m.Shard)
	num(c, &m.Attempt)
	slice(c, &m.Units, func(c rw, u *UnitResult) {
		num(c, &u.Index)
		opt(c, &u.Result, result)
		c.str(&u.Err)
	})
	slice(c, &m.Envelopes, func(c rw, e *federation.Envelope) {
		num(c, &e.Seq)
		c.str(&e.From)
		c.str(&e.To)
		c.str(&e.Summary.Domain)
		num(c, &e.Summary.Checked)
		c.flag(&e.Summary.OK)
		slice(c, &e.Summary.Digests, digest)
		slice(c, &e.Summary.Edges, func(c rw, f *checker.ForwardingEdge) {
			c.str(&f.Node)
			prefix(c, &f.Prefix)
			c.str(&f.NextHop)
		})
		num(c, &e.Bytes)
	})
}

func prefix(c rw, p *bgp.Prefix) {
	unum(c, &p.Addr)
	unum(c, &p.Len)
}

func spec(c rw, s *dice.RemoteSpec) {
	num(c, &s.Seed)
	num(c, &s.FuzzSeeds)
	c.flag(&s.UseConcolic)
	num(c, &s.ShadowMaxEvents)
	num(c, &s.Workers)
	c.flag(&s.HasProperties)
	c.strs(&s.Properties)
	slice(c, &s.Domains, func(c rw, d *federation.Domain) {
		c.str(&d.Name)
		c.strs(&d.Nodes)
	})
	num(c, &s.ClusterSeed)
	num(c, &s.ClusterMaxEvents)
	c.flag(&s.ClusterGaoRexford)
	num(c, &s.ClusterKeepalive)
}

func result(c rw, res *RemoteResult) {
	c.str(&res.Explorer)
	c.str(&res.FromPeer)
	c.str(&res.Domain)
	num(c, &res.InputsExplored)
	slice(c, &res.Detections, func(c rw, d *RemoteDetection) {
		digest(c, &d.Digest)
		num(c, &d.InputIndex)
		opt(c, &d.Input, func(c rw, in *concolic.Input) { c.regions(&in.Regions) })
		num(c, &d.Elapsed)
	})
	num(c, &res.DisclosedBytes)
	num(c, &res.Duration)
	s := &res.ExplorerStats
	for _, v := range []*int{
		&s.Executions, &s.UniquePaths, &s.UniqueInputs, &s.BranchesSeen,
		&s.CoverageSites, &s.SolverQueries, &s.SolverSteps, &s.SolverSat,
		&s.SolverUnsat, &s.SolverUnknown, &s.QueueOverflows, &s.Truncated,
	} {
		num(c, v)
	}
}

func digest(c rw, d *checker.ViolationDigest) {
	c.str(&d.Property)
	num(c, &d.Class)
	c.str(&d.Node)
	prefix(c, &d.Prefix)
	c.flag(&d.HasPfx)
}
