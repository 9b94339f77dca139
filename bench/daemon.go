package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"predmatch/internal/client"
	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/server"
	"predmatch/internal/wire"
)

// daemon is one in-process predmatchd on a loopback port, in the
// configuration `predmatchd` serves with no flags beyond cfg's.
type daemon struct {
	srv    *server.Server
	addr   string
	served chan error
}

func startDaemon(cfg server.Config) (*daemon, error) {
	srv, err := server.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("open daemon: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{srv: srv, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- srv.Serve(ln) }()
	return d, nil
}

// stop drains the daemon (checkpointing a durable one) and waits for
// its accept loop to return.
func (d *daemon) stop() error { return stopServer(d.srv, d.served) }

// stopServer shuts srv down and collects Serve's result from served.
func stopServer(srv *server.Server, served <-chan error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	if serr := <-served; err == nil && !errors.Is(serr, server.ErrServerClosed) {
		err = serr
	}
	return err
}

// wireAttrs is rel's schema in the wire form, as client.DeclareRelation
// sends it.
func wireAttrs(rel *schema.Relation) []wire.Attr {
	attrs := make([]wire.Attr, 0, rel.Arity())
	for _, a := range rel.Attrs() {
		attrs = append(attrs, wire.Attr{Name: a.Name, Type: a.Type.String()})
	}
	return attrs
}

// dial2 opens the load model's two connections.
func (d *daemon) dial2() ([2]*client.Client, error) {
	var cs [2]*client.Client
	for i := range cs {
		c, err := client.Dial(d.addr)
		if err != nil {
			return cs, fmt.Errorf("dial: %w", err)
		}
		cs[i] = c
	}
	return cs, nil
}

// declare sends the population's schemas.
func declare(c *client.Client, in *inputs) error {
	for _, rel := range in.pop.Rels {
		if err := c.DeclareRelation(rel); err != nil {
			return fmt.Errorf("declare %s: %w", rel.Name(), err)
		}
	}
	return nil
}

// loadPreds registers the standing population by addpred and returns
// the server's ID for each population ID (xlat[popID-1]).
func loadPreds(c *client.Client, in *inputs) ([]pred.ID, error) {
	xlat := make([]pred.ID, len(in.pop.Preds))
	for i, p := range in.pop.Preds {
		id, err := c.AddPredicate(p)
		if err != nil {
			return nil, fmt.Errorf("addpred %d: %w", p.ID, err)
		}
		xlat[i] = id
	}
	return xlat, nil
}
