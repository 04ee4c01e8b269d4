package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"feralcc/internal/appserver"
	"feralcc/internal/db"
	"feralcc/internal/orm"
	"feralcc/internal/storage"
	"feralcc/internal/wire"
)

// stack is the seven tiers in one process, joined over loopback TCP:
// HTTP clients → appserver.Server/Pool → orm.Session → wire.Client →
// wire.Server → sqlexec → storage (WAL in dir, fsync on every commit).
type stack struct {
	dir      string
	opts     storage.Options
	store    *storage.Database
	wsrv     *wire.Server
	wsrvDone chan error
	pool     *appserver.Pool
	app      *appserver.Server
	client   *http.Client
	base     string // "http://127.0.0.1:port"
	tracers  []*connTracer
}

// newStack assembles a fresh stack with clients HTTP clients and as many
// pool workers, migrates the workload's models and preloads its rows. With
// trace set, every worker's connection is wrapped in the timing wrapper.
func newStack(s *spec, sz sizes, clients int, dataRoot string, trace bool) (*stack, error) {
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(dataRoot, "data-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir}
	ok := false
	defer func() {
		if !ok {
			st.close()
			os.RemoveAll(dir)
		}
	}()

	st.opts = storage.Options{
		DefaultIsolation: storage.ReadCommitted,
		LockTimeout:      2 * time.Second,
		DataDir:          dir,
		SyncPolicy:       storage.SyncAlways,
	}
	if st.store, err = storage.OpenDir(st.opts); err != nil {
		return nil, err
	}
	registry, err := appserver.UniquenessModels()
	if s.assoc {
		registry, err = appserver.AssociationModels()
	}
	if err != nil {
		return nil, err
	}
	if err := preload(db.Wrap(st.store), registry, s, sz); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}

	st.wsrv = wire.NewServer(st.store, nil)
	if err := st.wsrv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	st.wsrvDone = make(chan error, 1)
	go func() { st.wsrvDone <- st.wsrv.Serve() }()

	// Dial every worker's connection before building the pool: NewPool's
	// connect func cannot report a failed dial.
	conns := make([]db.Conn, 0, clients)
	for i := 0; i < clients; i++ {
		c, err := wire.Dial(st.wsrv.Addr())
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		if trace {
			t := &connTracer{id: i}
			st.tracers = append(st.tracers, t)
			conns = append(conns, &tracedConn{Conn: c, t: t})
		} else {
			conns = append(conns, c)
		}
	}
	next := 0
	st.pool, err = appserver.NewPool(clients, registry, func() db.Conn {
		next++
		return conns[next-1]
	})
	if err != nil {
		return nil, err
	}
	st.app = appserver.NewServer(st.pool)
	if err := st.app.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	st.base = "http://" + st.app.Addr()
	st.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}}
	ok = true
	return st, nil
}

// preload migrates the registry and inserts the workload's starting rows in
// one transaction on an embedded connection: preloaded rows are the same on
// every seed, only the requests vary.
func preload(d *db.DB, registry *orm.Registry, s *spec, sz sizes) error {
	conn := d.Connect()
	defer conn.Close()
	sess := orm.NewSession(registry, conn)
	if err := sess.Migrate(); err != nil {
		return err
	}
	if _, err := conn.Exec("BEGIN"); err != nil {
		return err
	}
	if s.assoc {
		for d := 1; d <= sz.preload; d++ {
			if _, err := conn.Exec("INSERT INTO "+deptTable+" (id, name) VALUES (?, ?)",
				storage.Int(int64(d)), storage.Str(fmt.Sprintf("dept-%d", d))); err != nil {
				return err
			}
			for u := 0; u < usersPerDept; u++ {
				if _, err := conn.Exec("INSERT INTO "+userTable+" ("+userFK+") VALUES (?)",
					storage.Int(int64(d))); err != nil {
					return err
				}
			}
		}
	} else {
		for i := 0; i < sz.preload; i++ {
			if _, err := conn.Exec("INSERT INTO "+kvTable+" (key, value) VALUES (?, ?)",
				storage.Str(preKey(int64(i))), storage.Str(preValue(int64(i)))); err != nil {
				return err
			}
		}
	}
	if _, err := conn.Exec("COMMIT"); err != nil {
		return err
	}
	switch {
	case s.assoc:
		return sess.AddIndex(userModel, userFK)
	case s.indexed:
		return sess.AddUniqueIndex(kvModel, "key")
	}
	return nil
}

// close stops every tier, front to back, and waits for the wire server's
// accept loop and handlers to end. The data directory stays for the gate.
func (st *stack) close() error {
	if st.app != nil {
		st.app.Close()
	}
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
	if st.pool != nil {
		st.pool.Close()
	}
	if st.wsrvDone != nil {
		st.wsrv.Close()
		<-st.wsrvDone
	}
	if st.store != nil {
		return st.store.Close()
	}
	return nil
}

// walBytes is the size of everything under the data directory.
func (st *stack) walBytes() int64 {
	var n int64
	_ = filepath.Walk(st.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}
