package trace

import (
	"fmt"
	"time"
)

// Severity classifies an event for filtering and health evaluation.
type Severity uint8

const (
	// SevInfo marks routine transitions: sweeps, compactions,
	// membership refreshes, elections completing normally.
	SevInfo Severity = iota
	// SevWarn marks degradation the cluster is expected to absorb:
	// heartbeat deaths, degraded stripes, dial-failure bursts.
	SevWarn
	// SevError marks conditions needing an operator: unrepairable
	// stripes, sidecar corruption falling back to full replay.
	SevError
)

// String returns the severity's fixed-width label.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "INFO"
	case SevWarn:
		return "WARN"
	case SevError:
		return "ERROR"
	default:
		return fmt.Sprintf("SEV(%d)", uint8(s))
	}
}

// ParseSeverity maps a user-facing name (case-sensitive, as printed by
// String or the lowercase flag forms) to a Severity.
func ParseSeverity(s string) (Severity, error) {
	switch s {
	case "info", "INFO":
		return SevInfo, nil
	case "warn", "WARN", "warning":
		return SevWarn, nil
	case "error", "ERROR":
		return SevError, nil
	}
	return 0, fmt.Errorf("trace: unknown severity %q", s)
}

// Type identifies what kind of transition an event records. The
// constants below are the complete set; TestEventTypesCovered enforces
// that every one has a label and at least one emit site.
type Type uint16

const (
	// ElectionWon: a vmanager replica won its campaign and now leads
	// its shard. Val is the term.
	ElectionWon Type = 1 + iota
	// ElectionLost: a leader stepped down (higher term seen or a
	// failed campaign). Val is the term stepped down at.
	ElectionLost
	// TermChange: a replica adopted a new leader's term without
	// itself changing role. Val is the new term.
	TermChange
	// LogTruncate: a follower discarded divergent publish-log
	// records to converge with its leader. Val is records dropped.
	LogTruncate
	// SnapshotInstall: a lagging replica replaced its state with a
	// leader snapshot instead of replaying records. Val is the
	// snapshot's last sequence number.
	SnapshotInstall
	// HeartbeatDeath: pmanager declared a provider dead after
	// hbTimeout without a heartbeat. Val is the provider id.
	HeartbeatDeath
	// DeathWatchTrigger: a DeathWatch callback fired, kicking the
	// repair agent out of its timer sleep. Val is the provider id.
	DeathWatchTrigger
	// MembershipRefresh: the provider set changed (registration or
	// re-registration bumped the epoch). Val is the new epoch.
	MembershipRefresh
	// Retired slot (digest-refresh: the provider manager no longer
	// collects holdings digests); kept so later types keep their
	// numbers on the wire.
	_
	// RepairStart: a repair sweep began. Val is the blob count in
	// scope.
	RepairStart
	// RepairFinish: a repair sweep completed. Val is the degraded
	// page slots still outstanding after the sweep (0 = the cluster
	// is back to full redundancy) — the monitor's redundancy-debt
	// source.
	RepairFinish
	// PagesReconstructed: erasure reconstruction rebuilt missing
	// shards during a sweep. Val is pages reconstructed.
	PagesReconstructed
	// RedundancyDegraded: a sweep found stripe slots below their
	// redundancy target. Val is the degraded slot count
	// found (before repair restored any).
	RedundancyDegraded
	// Unrepairable: a sweep found pages with too few survivors to
	// reconstruct. Val is the unrepairable page count.
	Unrepairable
	// CompactionDone: the diskstore compactor rewrote a segment.
	// Val is bytes reclaimed.
	CompactionDone
	// SidecarDegrade: a segment's index sidecar was missing, stale
	// or corrupt and recovery fell back to a full replay (Val is the
	// segment bytes replayed), or a sealed segment was found empty
	// while its sidecar listed records, which are lost (Val is their
	// count).
	SidecarDegrade
	// DialFailure: an rpc client's dials to one address are failing
	// (rate-limited to one event per address per cooldown). Val is
	// the consecutive-failure count.
	DialFailure
	// BreakerOpen: a peer's circuit breaker tripped — recent calls to
	// it failed or crawled, and routing now asks it last until a call
	// after the open window succeeds (docs/robustness.md). Val is the
	// cumulative trip count for that peer.
	BreakerOpen
	// BreakerClose: the first call to the peer that succeeded after its
	// open window closed the breaker. Val is the trip count it
	// recovered from.
	BreakerClose

	maxType
)

// labels maps every Type to its stable, dash-separated wire/display
// name. TestEventTypesCovered fails if a constant is missing here.
var labels = map[Type]string{
	ElectionWon:        "election-won",
	ElectionLost:       "election-lost",
	TermChange:         "term-change",
	LogTruncate:        "log-truncate",
	SnapshotInstall:    "snapshot-install",
	HeartbeatDeath:     "heartbeat-death",
	DeathWatchTrigger:  "deathwatch-trigger",
	MembershipRefresh:  "membership-refresh",
	RepairStart:        "repair-start",
	RepairFinish:       "repair-finish",
	PagesReconstructed: "pages-reconstructed",
	RedundancyDegraded: "redundancy-degraded",
	Unrepairable:       "unrepairable",
	CompactionDone:     "compaction",
	SidecarDegrade:     "sidecar-degrade",
	DialFailure:        "dial-failure",
	BreakerOpen:        "breaker-open",
	BreakerClose:       "breaker-close",
}

// String returns the type's label ("type-N" for unknown values decoded
// from a newer node).
func (t Type) String() string {
	if s, ok := labels[t]; ok {
		return s
	}
	return fmt.Sprintf("type-%d", uint16(t))
}

// Event is one recorded transition. Events are plain values.
type Event struct {
	Seq  uint64   // recorder-local, monotonically increasing from 1
	Time int64    // unix nanoseconds
	Sev  Severity //
	Type Type     //
	Node string   // the emitting recorder's node name
	Msg  string   // human-readable detail
	Val  int64    // the type's numeric payload (see the constants)
}

// Format renders the event as one log/tail line:
//
//	15:04:05.000 WARN  node-3           heartbeat-death      provider 2 silent for 1.2s
func (e Event) Format() string {
	ts := time.Unix(0, e.Time).Format("15:04:05.000")
	return fmt.Sprintf("%s %-5s %-16s %-20s %s", ts, e.Sev, e.Node, e.Type, e.Msg)
}

// Emit records an event. The format and args build Msg; val carries the
// type's numeric payload. Safe on a nil tracer.
func (t *Tracer) Emit(sev Severity, typ Type, val int64, format string, args ...any) {
	if t == nil {
		return
	}
	t.events.push(Event{
		Time: time.Now().UnixNano(),
		Sev:  sev,
		Type: typ,
		Node: t.node,
		Msg:  fmt.Sprintf(format, args...),
		Val:  val,
	})
}

// EventTail is one answer to the incremental-tail query: the events
// newer than the asker's cursor, the newest sequence number the
// recorder ever emitted (whatever the filter dropped), and the
// recorder's incarnation. A process restart draws a new incarnation and
// numbers its events from 1 again, so a poller whose cursor came from
// another incarnation must start over from 0.
type EventTail struct {
	Incarnation uint64
	Latest      uint64
	Events      []Event
}

// Tail returns the events with Seq > since and severity >= minSev,
// oldest first. A follower remembers the Latest and Incarnation it saw
// per node and asks for what is new. A nil tracer has an empty tail.
func (t *Tracer) Tail(since uint64, minSev Severity) EventTail {
	if t == nil {
		return EventTail{}
	}
	evs, latest := t.events.since(since, func(seq uint64, e *Event) bool {
		e.Seq = seq
		return e.Sev >= minSev
	})
	return EventTail{Incarnation: t.seed, Latest: latest, Events: evs}
}

// Events returns a copy of every live event, oldest first.
func (t *Tracer) Events() []Event { return t.Tail(0, SevInfo).Events }
