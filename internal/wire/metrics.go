package wire

import "feralcc/internal/obs"

// Wire-tier instruments. Server side: frame bytes in both directions, and
// the two refusals an overloaded server makes (a connection at accept, a
// statement at admission). Client side: redials after a severed connection.
var (
	mBytesRead = obs.NewCounter(obs.Default(),
		"feraldb_wire_read_bytes_total", "Frame bytes received (headers included)")
	mBytesWritten = obs.NewCounter(obs.Default(),
		"feraldb_wire_written_bytes_total", "Frame bytes sent (headers included)")

	mConnsRejected = obs.NewCounter(obs.Default(),
		"feraldb_wire_connections_rejected_total", "Connections refused at accept because max-conns was reached")
	mShedQueueFull = obs.NewCounter(obs.Default(),
		`feraldb_wire_admission_sheds_total{reason="queue_full"}`, "Statements shed by admission control, by reason")
	mShedDoomed = obs.NewCounter(obs.Default(),
		`feraldb_wire_admission_sheds_total{reason="deadline_doomed"}`, "Statements shed by admission control, by reason")

	mClientRedials = obs.NewCounter(obs.Default(),
		"feraldb_client_redials_total", "Automatic reconnects after a severed connection")
)
