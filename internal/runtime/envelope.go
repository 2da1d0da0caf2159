package runtime

import (
	"encoding/binary"
	"time"

	"hivemind/internal/trace"
)

// taskMagic prefixes the task envelope, the one header a chain payload
// may carry ahead of its body:
//
//	"HMT2" | u16 idLen | id | u16 traceLen | traceID |
//	u64 parentSpan | i64 sentAtUnixNano | payload
//
// The task id lets a re-submitted chain call join the original task's
// checkpoints instead of forking a new one; the trace context and send
// timestamp are empty/0 when the client does not trace.
var taskMagic = []byte("HMT2")

// TaskEnvelope is the decoded header of an EncodeTask/EncodeTaskTraced
// payload.
type TaskEnvelope struct {
	// ID is the client-chosen task id.
	ID string
	// Trace is the propagated trace context (zero when untraced).
	Trace trace.SpanContext
	// SentAtNS is the client's send timestamp (UnixNano; 0 when
	// untraced). The gateway derives the network stage from it, so it
	// is only meaningful when client and gateway clocks agree —
	// loopback and NTP-disciplined fleets, which is what the live
	// substrate runs on.
	SentAtNS int64
}

// EncodeTask wraps a chain payload with a task id (no trace context,
// send timestamp 0). Clients that may retry across a controller
// failover send encoded payloads so the new primary deduplicates their
// chain against its checkpoints.
func EncodeTask(id string, payload []byte) []byte {
	return encodeTask(id, trace.SpanContext{}, 0, payload)
}

// EncodeTaskTraced wraps a chain payload with a task id, a trace
// context, and the send timestamp. The gateway joins re-submitted ids
// against its checkpoints exactly as with EncodeTask, and additionally
// parents its spans under tc and charges the transfer delay to the
// network stage.
func EncodeTaskTraced(id string, tc trace.SpanContext, sentAt time.Time, payload []byte) []byte {
	return encodeTask(id, tc, sentAt.UnixNano(), payload)
}

func encodeTask(id string, tc trace.SpanContext, sentAtNS int64, payload []byte) []byte {
	out := make([]byte, 0, len(taskMagic)+2+len(id)+2+len(tc.TraceID)+8+8+len(payload))
	out = append(out, taskMagic...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(id)))
	out = append(out, id...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(tc.TraceID)))
	out = append(out, tc.TraceID...)
	out = binary.BigEndian.AppendUint64(out, tc.Parent)
	out = binary.BigEndian.AppendUint64(out, uint64(sentAtNS))
	return append(out, payload...)
}

// DecodeTaskEnvelope splits a task payload. ok is false for bare or
// truncated payloads, which are returned unchanged with a zero
// envelope.
func DecodeTaskEnvelope(raw []byte) (env TaskEnvelope, payload []byte, ok bool) {
	n := len(taskMagic)
	if len(raw) < n+2 || string(raw[:n]) != string(taskMagic) {
		return TaskEnvelope{}, raw, false
	}
	rest := raw[n:]
	idLen := int(binary.BigEndian.Uint16(rest[:2]))
	rest = rest[2:]
	if len(rest) < idLen+2 {
		return TaskEnvelope{}, raw, false
	}
	env.ID = string(rest[:idLen])
	rest = rest[idLen:]
	traceLen := int(binary.BigEndian.Uint16(rest[:2]))
	rest = rest[2:]
	if len(rest) < traceLen+16 {
		return TaskEnvelope{}, raw, false
	}
	env.Trace.TraceID = string(rest[:traceLen])
	rest = rest[traceLen:]
	env.Trace.Parent = binary.BigEndian.Uint64(rest[:8])
	env.SentAtNS = int64(binary.BigEndian.Uint64(rest[8:16]))
	return env, rest[16:], true
}

// DecodeTask splits a task payload into its id and body; ok is false
// for bare payloads (which get a gateway-generated task id).
func DecodeTask(raw []byte) (id string, payload []byte, ok bool) {
	env, payload, ok := DecodeTaskEnvelope(raw)
	return env.ID, payload, ok
}
