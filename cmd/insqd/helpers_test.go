package main

import (
	"context"

	insq "repro"
	"repro/internal/server"
)

// newServer adapts the historical test construction shape to the
// extracted internal/server package.
func newServer(e *insq.Engine, pprofOn bool) *server.Server {
	return server.New(e, server.Options{Pprof: pprofOn})
}

// mutate applies one object mutation as a one-entry engine batch.
func mutate(e *insq.Engine, m insq.Mutation) error {
	_, err := e.ApplyMutations(context.Background(), []insq.Mutation{m})
	return err
}
