#include "api/rpc.h"

#include "api/wire_fields.h"

namespace ifgen {
namespace api {

IFGEN_WIRE_FIELDS(RpcEnvelope, "RpcEnvelope",
                  Field<&RpcEnvelope::api_version>("api_version").Required(),
                  Field<&RpcEnvelope::method>("method").Required(),
                  Field<&RpcEnvelope::request_id>("request_id"),
                  Field<&RpcEnvelope::payload>("payload"))

JsonValue RpcEnvelope::ToJson() const { return WireEncode(*this); }

Result<RpcEnvelope> RpcEnvelope::FromJson(const JsonValue& v) {
  IFGEN_ASSIGN_OR_RETURN(RpcEnvelope e, WireDecode<RpcEnvelope>(v));
  if (!e.payload.is_object()) {
    return Status::Invalid("RpcEnvelope.payload must be an object");
  }
  return e;
}

RpcReply RpcReply::Success(int64_t request_id, JsonValue payload) {
  RpcReply r;
  r.request_id = request_id;
  r.ok = true;
  r.payload = std::move(payload);
  return r;
}

RpcReply RpcReply::Failure(int64_t request_id, const Status& s) {
  RpcReply r;
  r.request_id = request_id;
  r.ok = false;
  r.error = ErrorBody::FromStatus(s);
  return r;
}

// `ok` selects payload or error, and `epoch` is omitted at 0 (pre-epoch
// peers), so the codec is hand-written.
IFGEN_WIRE_FIELDS(RpcReply, "RpcReply",
                  Field<&RpcReply::request_id>("request_id"),
                  Field<&RpcReply::ok>("ok"),
                  Field<&RpcReply::epoch>("epoch"),
                  Field<&RpcReply::payload>("payload"),
                  Field<&RpcReply::error>("error"))

JsonValue RpcReply::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("request_id", JsonValue::Int(request_id));
  v.Set("ok", JsonValue::Bool(ok));
  if (epoch != 0) v.Set("epoch", JsonValue::Int(epoch));
  if (ok) {
    v.Set("payload", payload);
  } else {
    v.Set("error", error.ToJson());
  }
  return v;
}

Result<RpcReply> RpcReply::FromJson(const JsonValue& v) {
  RpcReply rep;
  ObjectReader r(v, Fields<RpcReply>::kWhat);
  r.Int("request_id", &rep.request_id);
  r.Bool("ok", &rep.ok, /*required=*/true);
  r.Int("epoch", &rep.epoch, /*required=*/false, 0);
  const JsonValue* payload = r.Child("payload");
  const JsonValue* error = r.Child("error");
  IFGEN_RETURN_NOT_OK(r.Finish());
  if (rep.ok) {
    if (payload == nullptr || !payload->is_object()) {
      return Status::Invalid("ok RpcReply requires an object payload");
    }
    rep.payload = *payload;
  } else {
    if (error == nullptr) {
      return Status::Invalid("failed RpcReply requires an error body");
    }
    IFGEN_ASSIGN_OR_RETURN(rep.error, ErrorBody::FromJson(*error));
  }
  return rep;
}

IFGEN_WIRE_FIELDS(IdRequest, "IdRequest",
                  Field<&IdRequest::id>("id").Required(),
                  Field<&IdRequest::wait_ms>("wait_ms").AtLeast(0))
IFGEN_WIRE_CODEC(IdRequest)

IFGEN_WIRE_FIELDS(ProgressRequest, "ProgressRequest",
                  Field<&ProgressRequest::job_id>("job_id").Required(),
                  Field<&ProgressRequest::last_seen_version>("last_seen_version")
                      .AtLeast(0),
                  Field<&ProgressRequest::wait_ms>("wait_ms").AtLeast(0))
IFGEN_WIRE_CODEC(ProgressRequest)

IFGEN_WIRE_FIELDS(SessionEventRequest, "SessionEventRequest",
                  Field<&SessionEventRequest::session_id>("session_id").Required(),
                  Field<&SessionEventRequest::event>("event").Required())
IFGEN_WIRE_CODEC(SessionEventRequest)

IFGEN_WIRE_FIELDS(WorkerPingResponse, "WorkerPingResponse",
                  Field<&WorkerPingResponse::jobs_submitted>("jobs_submitted"),
                  Field<&WorkerPingResponse::jobs_executed>("jobs_executed"),
                  Field<&WorkerPingResponse::jobs_pending>("jobs_pending"),
                  Field<&WorkerPingResponse::sessions_active>("sessions_active"),
                  Field<&WorkerPingResponse::draining>("draining"),
                  Field<&WorkerPingResponse::cache_probes>("cache_probes")
                      .AtLeast(0),
                  Field<&WorkerPingResponse::cache_probe_hits>("cache_probe_hits")
                      .AtLeast(0))
IFGEN_WIRE_CODEC(WorkerPingResponse)

IFGEN_WIRE_FIELDS(CacheProbeResponse, "CacheProbeResponse",
                  Field<&CacheProbeResponse::hit>("hit").Required())
IFGEN_WIRE_CODEC(CacheProbeResponse)

IFGEN_WIRE_FIELDS(TextReply, "TextReply", Field<&TextReply::text>("text"))
IFGEN_WIRE_CODEC(TextReply)

}  // namespace api
}  // namespace ifgen
