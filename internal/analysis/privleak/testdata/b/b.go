// Package b mirrors the procdriver frame protocol: every frame crosses the
// parent/child process boundary, so payloads must be canonical and
// self-contained — dialect text, codec-encoded snapshot bytes and counters.
// Raw speaker state (including the engine counters), checker evidence and
// live handles must stay on their own side of the pipe.
package b

import (
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/speaker"
)

// GoodFrame is the canonical request/response shape: an op code, the
// dialect blob and the codec-encoded checkpoint payload.
//
//dice:boundary
type GoodFrame struct {
	Op       uint8
	Impl     string
	Config   string
	Snapshot []byte
}

// BadState ships the child's raw route table back in the reply.
//
//dice:boundary
type BadState struct { // want `reaches node\.PeerRouteMap`
	Routes node.PeerRouteMap
}

// BadEngine leaks speaker engine internals instead of the codec form.
//
//dice:boundary
type BadEngine struct { // want `reaches speaker\.EngineStats`
	Stats speaker.EngineStats
}

// BadViolationFrame returns checker evidence wholesale instead of digests.
//
//dice:boundary
type BadViolationFrame struct { // want `reaches checker\.Violation`
	Found []checker.Violation
}

// BadHandle embeds a live callback, which cannot cross exec.
//
//dice:boundary
type BadHandle struct { // want `channel or func`
	OnFrame func([]byte)
}
