package server

import "repro/internal/transport/wire"

// Binary message IDs (wire.Register). Stable wire constants: never
// renumber — retire an ID and allocate a fresh one instead. 255 stays
// unassigned: RouteRequest encodes it for a payload it cannot encode.
const (
	binIDCheckinRequest      = 16
	binIDCheckinResponse     = 17
	binIDJoinRequest         = 18
	binIDJoinResponse        = 19
	binIDDownloadRequest     = 20
	binIDDownloadResponse    = 21
	binIDReportRequest       = 22
	binIDReportResponse      = 23
	binIDUploadChunk         = 24
	binIDUploadResponse      = 25
	binIDFailRequest         = 26
	binIDRouteRequest        = 27
	binIDTaskInfo            = 28
	binIDTaskSpec            = 29
	binIDAssignment          = 30
	binIDAggReport           = 31
	binIDAggDirective        = 32
	binIDAssignTaskRequest   = 33
	binIDAssignClientRequest = 34
	binIDAssignClientResp    = 35
	binIDMapResponse         = 36
	binIDAgentListResponse   = 37
	binIDReconfigureRequest  = 38
)

// The control plane rides the in-memory fabric as plain `any` values; to
// cross a process boundary every payload and response must instead be a
// registered wire message. This is the explicit registry of everything
// internal/server puts on the network — Section 4's Coordinator/Aggregator/
// Selector protocols, the Section 6.1 client session calls, and the
// Appendix E.3/E.4 control messages — each with its ID, stable name and
// decoder (the field walks are in binwire.go). A type absent from this
// list cannot travel over a networked fabric; wire round-trip tests
// enumerate exactly this set, plus wire's own string and bool payloads.
func init() {
	// Coordinator-facing control messages (Sections 6.2-6.3, Appendix E.4).
	wire.Register(binIDTaskSpec, "papaya/v1/server.TaskSpec", decodeTaskSpec)
	wire.Register(binIDAssignment, "papaya/v1/server.Assignment", decodeAssignment)
	wire.Register(binIDAggReport, "papaya/v1/server.AggReport", decodeAggReport)
	wire.Register(binIDAggDirective, "papaya/v1/server.AggDirective", decodeAggDirective)
	wire.Register(binIDAssignTaskRequest, "papaya/v1/server.AssignTaskRequest", decodeAssignTaskRequest)
	wire.Register(binIDAssignClientRequest, "papaya/v1/server.AssignClientRequest", decodeAssignClientRequest)
	wire.Register(binIDAssignClientResp, "papaya/v1/server.AssignClientResponse", decodeAssignClientResponse)
	wire.Register(binIDMapResponse, "papaya/v1/server.MapResponse", decodeMapResponse)
	wire.Register(binIDAgentListResponse, "papaya/v1/server.AgentListResponse", decodeAgentListResponse)
	wire.Register(binIDReconfigureRequest, "papaya/v1/server.ReconfigureRequest", decodeReconfigureRequest)

	// Client-session calls (Section 6.1's virtual session, stages 1-4).
	wire.Register(binIDCheckinRequest, "papaya/v1/server.CheckinRequest", decodeCheckinRequest)
	wire.Register(binIDCheckinResponse, "papaya/v1/server.CheckinResponse", decodeCheckinResponse)
	wire.Register(binIDJoinRequest, "papaya/v1/server.JoinRequest", decodeJoinRequest)
	wire.Register(binIDJoinResponse, "papaya/v1/server.JoinResponse", decodeJoinResponse)
	wire.Register(binIDDownloadRequest, "papaya/v1/server.DownloadRequest", decodeDownloadRequest)
	wire.Register(binIDDownloadResponse, "papaya/v1/server.DownloadResponse", decodeDownloadResponse)
	wire.Register(binIDReportRequest, "papaya/v1/server.ReportRequest", decodeReportRequest)
	wire.Register(binIDReportResponse, "papaya/v1/server.ReportResponse", decodeReportResponse)
	wire.Register(binIDUploadChunk, "papaya/v1/server.UploadChunk", decodeUploadChunk)
	wire.Register(binIDUploadResponse, "papaya/v1/server.UploadResponse", decodeUploadResponse)
	wire.Register(binIDFailRequest, "papaya/v1/server.FailRequest", decodeFailRequest)
	wire.Register(binIDRouteRequest, "papaya/v1/server.RouteRequest", decodeRouteRequest)
	wire.Register(binIDTaskInfo, "papaya/v1/server.TaskInfo", decodeTaskInfo)
}
