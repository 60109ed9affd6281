package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"segshare"
	"segshare/internal/core"
	"segshare/internal/obs"
)

// session is the slice of the client API the load loop drives. Both
// *segshare.Client (over mTLS) and a Server.Direct session satisfy it, so
// the TLS and direct workloads run the identical loop; tests substitute a
// fake to check the verifier itself.
type session interface {
	Upload(path string, content []byte) error
	Download(path string) ([]byte, error)
	AddUser(user, group string) error
	RemoveUser(user, group string) error
	SetPermission(path, group, permission string) error
}

// directSession adapts core.DirectSession's typed permission argument.
type directSession struct{ *core.DirectSession }

func (d directSession) SetPermission(path, group, permission string) error {
	return d.DirectSession.SetPermission(path, group, core.PermissionSpec(permission))
}

const (
	ownerUser = "owner"
	peerUser  = "peer"
	probeDir  = "/probe/"
)

func spareUser(c int) string  { return fmt.Sprintf("spare%02d", c) }
func spareGroup(c int) string { return fmt.Sprintf("revocable%02d", c) }
func probePath(c int) string  { return fmt.Sprintf("%sp%02d.bin", probeDir, c) }
func shareGroup(k int) string { return fmt.Sprintf("share%02d", k) }

// probeFileID is the object id of client c's probe file, outside the
// corpus range.
func probeFileID(spec workloadSpec, c int) uint32 { return uint32(spec.files() + c) }

// deployment is one in-process server with its preloaded corpus and
// connected clients.
type deployment struct {
	spec    workloadSpec
	server  *segshare.Server
	config  segshare.ServerConfig
	reg     *obs.Registry
	stores  backends
	fill    filler
	clients int

	// owners[c] is client c's session as the corpus owner; spares[c] is
	// the session of the user client c grants to and revokes from. They
	// are the direct or the TLS pair below, as the workload says.
	owners, spares []session
	// The direct sessions always exist; the TLS clients exist for a TLS
	// workload and for every traced deployment, which runs both paths to
	// tell transport cost from core cost.
	directOwners, directSpares []session
	tlsOwners, tlsSpares       []session

	// Tracing taps; nil in an untraced deployment.
	tracer *tracer
	taps   []*tracedBackend
	wire   *wireCounter

	closers []func()
}

func (d *deployment) Close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
}

// livePlaintextBytes is the user data the stores hold at any time: every
// PUT replaces an object with one of the same size.
func (d *deployment) livePlaintextBytes() int64 {
	return int64(d.spec.files()+d.clients) * int64(d.spec.ObjectBytes)
}

func (d *deployment) storedBytes() (int64, error) {
	var total int64
	for _, b := range d.stores.all() {
		n, err := b.TotalBytes()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// deploy builds the whole deployment: CA, platform, server with the
// shipping-default configuration, provisioning, corpus preload through a
// direct session, client certificates and handshakes, and a fixed-count
// warm-up of 5 % of the corpus. Its wall time is the setup_s metric.
// With traced set, the stores and the listener are wrapped in the
// benchmark's taps.
func deploy(spec workloadSpec, seed uint64, clients int, traced bool) (_ *deployment, err error) {
	d := &deployment{
		spec:    spec,
		reg:     obs.NewRegistry(),
		fill:    newFiller(seed, spec.ObjectBytes),
		clients: clients,
	}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()

	authority, err := segshare.NewCA("benchmark CA")
	if err != nil {
		return nil, err
	}
	platform, err := segshare.NewPlatform(segshare.PlatformConfig{})
	if err != nil {
		return nil, err
	}

	d.stores = backends{Content: segshare.NewMemoryStore(), Group: segshare.NewMemoryStore()}
	if spec.Features.Dedup {
		d.stores.Dedup = segshare.NewMemoryStore()
	}
	if spec.Audit {
		d.stores.Audit = segshare.NewMemoryStore()
	}
	handed := d.stores
	if traced {
		d.tracer = newTracer()
		d.wire = &wireCounter{}
		tap := func(b segshare.Backend, role string) segshare.Backend {
			if b == nil {
				return nil
			}
			tb := newTracedBackend(b, role, d.tracer)
			d.taps = append(d.taps, tb)
			return tb
		}
		handed = backends{
			Content: tap(d.stores.Content, "content"),
			Group:   tap(d.stores.Group, "group"),
			Dedup:   tap(d.stores.Dedup, "dedup"),
			Audit:   tap(d.stores.Audit, "audit"),
		}
	}
	d.config = shippingConfig(authority.CertificatePEM(), spec, handed, d.reg)
	d.server, err = segshare.NewServer(platform, d.config)
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, func() { d.server.Close() })
	if err := segshare.Provision(authority, platform, d.server, d.config, []string{"localhost"}); err != nil {
		return nil, err
	}
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := listener.Addr().String()
	if traced {
		listener = countingListener{Listener: listener, w: d.wire}
	}
	if err := d.server.Serve(listener); err != nil {
		listener.Close()
		return nil, err
	}

	if err := d.preload(); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}

	for c := 0; c < clients; c++ {
		d.directOwners = append(d.directOwners, directSession{d.server.Direct(ownerUser)})
		d.directSpares = append(d.directSpares, directSession{d.server.Direct(spareUser(c))})
	}
	if !spec.Direct || traced {
		connect := func(user string) (session, error) {
			cred, err := authority.IssueClientCertificate(segshare.Identity{UserID: user}, 24*time.Hour)
			if err != nil {
				return nil, err
			}
			cl, err := segshare.NewClient(segshare.ClientConfig{
				Addr:       addr,
				CACertPEM:  authority.CertificatePEM(),
				Credential: cred,
			})
			if err != nil {
				return nil, err
			}
			d.closers = append(d.closers, cl.Close)
			// One request completes the handshake, so the measured phase
			// starts on a warm keep-alive connection.
			if _, err := cl.WhoAmI(); err != nil {
				return nil, fmt.Errorf("handshake as %s: %w", user, err)
			}
			return cl, nil
		}
		for c := 0; c < clients; c++ {
			o, err := connect(ownerUser)
			if err != nil {
				return nil, err
			}
			s, err := connect(spareUser(c))
			if err != nil {
				return nil, err
			}
			d.tlsOwners, d.tlsSpares = append(d.tlsOwners, o), append(d.tlsSpares, s)
		}
	}
	d.owners, d.spares = d.tlsOwners, d.tlsSpares
	if spec.Direct {
		d.owners, d.spares = d.directOwners, d.directSpares
	}

	// Warm-up: a fixed op count (5 % of the corpus) from a stream of its
	// own, so caches, connection buffers and lazily built state are in
	// place before the measured phase. Any failure here fails set-up.
	warm := newLoop(d, seed^0xA11CE, d.owners, d.spares)
	res := warm.run(stopAfterOps(max(spec.files()/20, 3*clients)))
	if res.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %v", res.failed, res.attempted, res.errs)
	}
	runtime.GC()
	return d, nil
}

// preload creates the corpus through a direct session (populating it over
// TLS would only lengthen set-up): Dirs directories whose ACLs each grant
// all 16 sharing groups, FilesPerDir self-describing objects in each, and
// one probe file plus one revocable group per client.
func (d *deployment) preload() error {
	owner := d.server.Direct(ownerUser)
	for k := 0; k < sharingGroups; k++ {
		// Creating the group makes the owner a member; the peer joins too.
		if err := owner.AddUser(peerUser, shareGroup(k)); err != nil {
			return err
		}
	}
	body := make([]byte, d.spec.ObjectBytes)
	for dir := 0; dir < d.spec.Dirs; dir++ {
		if err := owner.Mkdir(dirPath(dir)); err != nil {
			return err
		}
		for k := 0; k < sharingGroups; k++ {
			if err := owner.SetPermission(dirPath(dir), shareGroup(k), "rw"); err != nil {
				return err
			}
		}
		for f := 0; f < d.spec.FilesPerDir; f++ {
			file := dir*d.spec.FilesPerDir + f
			d.fill.makeObject(body, uint32(file), 0)
			if err := owner.Upload(filePath(d.spec, file), body); err != nil {
				return err
			}
		}
	}
	if err := owner.Mkdir(probeDir); err != nil {
		return err
	}
	for c := 0; c < d.clients; c++ {
		d.fill.makeObject(body, probeFileID(d.spec, c), 0)
		if err := owner.Upload(probePath(c), body); err != nil {
			return err
		}
		// Create the revocable group (owner joins as creator), leave the
		// spare user outside it, and make it the only grant on the probe
		// file besides the owner.
		if err := owner.AddUser(spareUser(c), spareGroup(c)); err != nil {
			return err
		}
		if err := owner.RemoveUser(spareUser(c), spareGroup(c)); err != nil {
			return err
		}
		if err := owner.SetPermission(probePath(c), spareGroup(c), "r"); err != nil {
			return err
		}
	}
	return nil
}
