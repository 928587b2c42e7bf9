package registry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"malevade/internal/defense"
	"malevade/internal/detector"
	"malevade/internal/nn"
	"malevade/internal/serve"
)

// Instance is one immutable, servable build of a model version: the
// scoring engine over the loaded network, the optional defended
// verdict path, and the identity (name, version, generation) every
// response it computes is stamped with.
//
// Instances are refcounted so a promotion (or the server's hot-reload) can
// drain one before closing its engine: holders pin with Slot.Acquire,
// release with Release, and Retire blocks until the last in-flight holder
// lets go — the channel-signalled drain the server's reload machinery
// introduced, now shared by every live slot in the process.
type Instance struct {
	// Scorer is the slot-bounded scoring engine over the loaded network.
	Scorer *serve.Scorer
	// Det is the defended verdict path when the version carries a defense
	// chain (nil for a bare model, which scores straight off the logits).
	Det detector.Detector
	// Name is the registry model name ("" for a server's default slot).
	Name string
	// Version is the model-scoped version number this instance serves.
	Version int
	// Generation is the serving generation stamped on every response.
	Generation int64
	// Path is the model file the instance was loaded from.
	Path string
	// LoadedAt is when the instance was built.
	LoadedAt time.Time

	// requests, when non-nil, is the owning model's served-request counter
	// (shared across that model's instances so it survives promotions).
	requests *atomic.Int64

	refs      atomic.Int64
	retired   atomic.Bool
	drained   chan struct{}
	drainOnce sync.Once
}

// InstanceConfig parameterizes BuildInstance.
type InstanceConfig struct {
	// Path is the nn.SaveFile model file to load.
	Path string
	// Name/Version/Generation are the identity stamped on the instance.
	Name       string
	Version    int
	Generation int64
	// Temperature is the softmax temperature of the probability head
	// (0 means 1).
	Temperature float64
	// Scorer tunes the scoring engine.
	Scorer serve.Options
	// Defenses, when non-empty, wraps the loaded model in a servable
	// defense chain; verdicts then travel the defended path.
	Defenses defense.Chain
}

// BuildInstance loads the model file and assembles a servable instance:
// engine, optional defense wrap, identity. The API contract is the paper's
// two-class head; any other logits width fails here, at load time, rather
// than panicking inside a scoring handler.
func BuildInstance(cfg InstanceConfig) (*Instance, error) {
	net, err := nn.LoadFile(cfg.Path)
	if err != nil {
		return nil, fmt.Errorf("registry: load model: %w", err)
	}
	if net.OutDim() != 2 {
		return nil, fmt.Errorf("registry: model %s has %d output classes, want 2 (clean/malware)",
			cfg.Path, net.OutDim())
	}
	temp := cfg.Temperature
	if temp <= 0 {
		temp = 1
	}
	inst := &Instance{
		Scorer:     serve.New(net, temp, cfg.Scorer),
		Name:       cfg.Name,
		Version:    cfg.Version,
		Generation: cfg.Generation,
		Path:       cfg.Path,
		LoadedAt:   time.Now(),
		drained:    make(chan struct{}),
	}
	if len(cfg.Defenses) > 0 {
		// The defended path wraps a plain DNN over the same loaded network
		// (its inference path is concurrency-safe and pools per-call
		// workspaces).
		det, err := cfg.Defenses.Wrap(&detector.DNN{Net: net, Temperature: temp})
		if err != nil {
			inst.Scorer.Close()
			return nil, fmt.Errorf("registry: build defense chain: %w", err)
		}
		inst.Det = det
	}
	return inst, nil
}

// Release drops one pin taken by Slot.Acquire. When the instance has been
// retired and this was the last pin, the drain is signalled so Retire can
// proceed without polling.
func (i *Instance) Release() {
	if i.refs.Add(-1) == 0 && i.retired.Load() {
		i.signalDrained()
	}
}

func (i *Instance) signalDrained() {
	i.drainOnce.Do(func() { close(i.drained) })
}

// Retire drains a swapped-out instance and closes its engine. The drain
// blocks on a channel the last Release closes — no polling. Any ref taken
// after the retired count was observed at zero belongs to an Acquire that
// will fail its recheck without touching the engine, so closing it then is
// safe.
func (i *Instance) Retire() {
	i.retired.Store(true)
	if i.refs.Load() == 0 {
		i.signalDrained()
	}
	<-i.drained
	i.Scorer.Close()
}

// CountRequest bumps the owning model's served-request counter (a no-op
// for instances outside a registry, e.g. a server's default slot).
func (i *Instance) CountRequest() {
	if i.requests != nil {
		i.requests.Add(1)
	}
}

// Slot is an atomically swappable live-instance holder with the
// refcounted-drain contract: Acquire pins the current instance for the
// duration of one request, Swap installs a successor, and retiring the
// predecessor (Instance.Retire) blocks until every pin is released. One
// Slot backs the server's default model; the registry holds one per named
// model.
type Slot struct {
	cur atomic.Pointer[Instance]
}

// Load peeks at the current instance without pinning it. Use only for
// metadata reads (health, listings); scoring paths must Acquire.
func (s *Slot) Load() *Instance { return s.cur.Load() }

// Store installs the first instance (no predecessor to retire).
func (s *Slot) Store(i *Instance) { s.cur.Store(i) }

// Swap installs next and returns the predecessor (nil when empty). The
// caller owns the predecessor exclusively and must Retire it.
func (s *Slot) Swap(next *Instance) *Instance { return s.cur.Swap(next) }

// Acquire pins the current instance for the duration of one request. The
// retry loop closes the race with a concurrent Swap: a ref taken on an
// already-retired instance is dropped and the load retried, so a
// successful Acquire guarantees the instance stayed current at the moment
// its refcount became visible — a Retire can therefore never close an
// engine a request is still using. Returns nil once the slot is empty.
func (s *Slot) Acquire() *Instance {
	for {
		i := s.cur.Load()
		if i == nil {
			return nil
		}
		i.refs.Add(1)
		if s.cur.Load() == i {
			return i
		}
		// Lost the race with a Swap: drop the ref through Release so that
		// if this was the retired instance's last reference, the drain is
		// signalled — a bare decrement here would wedge Retire forever.
		i.Release()
	}
}
