// Package harden closes the paper's defense-evaluation loop as an online
// controller: attack a named registry model with an evasion campaign,
// harvest the successful evasions as labelled malware rows, adversarially
// retrain the model on them (defense/advtrain), register and atomically
// promote the hardened version through the model registry, then re-attack
// to measure the per-round evasion-rate drop — until a target rate or the
// round budget.
//
// The controller runs jobs on the job runner (internal/jobs) the campaign
// engine it drives also uses, with one addition: every job persists its snapshot (and
// the crafting-model snapshot it attacks with) under a state directory next
// to the registry, so a restarted daemon resumes an in-flight job at its
// last recorded round instead of losing it. Crafting is pinned to the
// target's live version as of job start — the paper's fixed-adversarial-
// examples methodology — so the measured drop is attributable to
// retraining, not to a moving crafting gradient.
//
// The wire types live in the leaf package internal/harden/spec, which both
// this package and the client SDK import; the aliases below let everything
// server-side spell them harden.Spec, harden.Snapshot, and so on.
package harden

import (
	"malevade/internal/harden/spec"
)

// Spec describes one hardening job (alias of the wire type).
type Spec = spec.Spec

// Round records one completed attack→retrain→promote round's metrics
// (alias of the wire type).
type Round = spec.Round

// Snapshot is a point-in-time view of a hardening job (alias of the wire
// type).
type Snapshot = spec.Snapshot

// Status is a hardening job's lifecycle state — the same state machine as
// campaigns.
type Status = spec.Status

// The hardening job lifecycle, shared with the campaign taxonomy.
const (
	StatusQueued    = spec.StatusQueued
	StatusRunning   = spec.StatusRunning
	StatusDone      = spec.StatusDone
	StatusFailed    = spec.StatusFailed
	StatusCancelled = spec.StatusCancelled
)

// Stop reasons recorded in Snapshot.StopReason when a job completes.
const (
	StopRoundBudget   = spec.StopRoundBudget
	StopTargetReached = spec.StopTargetReached
	StopNoEvasions    = spec.StopNoEvasions
)
