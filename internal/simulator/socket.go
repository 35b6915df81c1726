package simulator

import "context"

// SocketResult aggregates a socket-mode run.
type SocketResult struct {
	MAE          float64
	SizesByLabel map[int][]int
}

// RunOverSocket executes the pipeline over a real TCP loopback connection.
// It is a one-sensor fleet: the sensor streams through an ingest.Client to
// an ingest.Server, sampling from the same replayable RNG stream as the
// in-process Run, so a fixed-seed socket run reconstructs exactly what Run
// does. Energy/budget accounting is Run's job; this path validates the
// transport stack end to end under the RunConfig.IOTimeout deadlines.
func RunOverSocket(cfg RunConfig) (*SocketResult, error) {
	return RunOverSocketContext(context.Background(), cfg)
}

// RunOverSocketContext is RunOverSocket under a caller context, with
// RunFleetContext's cancellation contract: the server and the client
// connection are closed and the cancellation is reported as the run's
// error.
func RunOverSocketContext(ctx context.Context, cfg RunConfig) (*SocketResult, error) {
	res, err := RunFleetContext(ctx, FleetConfig{Base: cfg, Sensors: 1, IOTimeout: cfg.IOTimeout})
	if err != nil {
		return nil, err
	}
	return &SocketResult{MAE: res.PerSensorMAE[0], SizesByLabel: res.SizesByLabel}, nil
}
