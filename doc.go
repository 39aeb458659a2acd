// Package rftp is the module root of a from-scratch Go reproduction of
// "Protocols for Wide-Area Data-intensive Applications: Design and
// Performance Issues" (Ren et al., SC 2012): an RDMA-based data-transfer
// middleware (RFTP) with its flow control, connection management, and
// task synchronization, plus every substrate needed to regenerate the
// paper's evaluation without RDMA hardware.
//
// The root package holds only this documentation; the implementation
// lives under internal/:
//
//   - internal/core — the protocol (the paper's contribution)
//   - internal/verbs — OFED-like verbs API
//   - internal/fabric/{simfabric,chanfabric,netfabric} — three fabrics
//   - internal/{sim,hostmodel,tcpmodel,gridftp,diskmodel} — substrates
//   - internal/{ioengine,bench,metrics,trace} — measurement & tooling
//
// See README.md, DESIGN.md and EXPERIMENTS.md.
package rftp
