#include "api/dto.h"

#include "api/wire_fields.h"
#include "engine/backend.h"
#include "util/string_util.h"

namespace ifgen {
namespace api {

// ---------------------------------------------------------------------------
// ObjectReader.

ObjectReader::ObjectReader(const JsonValue& value, std::string what)
    : value_(value), what_(std::move(what)) {
  if (!value_.is_object()) {
    status_ = Status::Invalid(what_ + ": expected a JSON object");
  } else {
    consumed_.assign(value_.members().size(), false);
  }
}

const JsonValue* ObjectReader::Get(const char* key) {
  if (!value_.is_object()) return nullptr;
  for (size_t i = 0; i < value_.members().size(); ++i) {
    if (value_.members()[i].first == key) {
      consumed_[i] = true;
      return &value_.members()[i].second;
    }
  }
  return nullptr;
}

void ObjectReader::Fail(Status s) {
  if (status_.ok()) status_ = std::move(s);
}

void ObjectReader::String(const char* key, std::string* out, bool required) {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    if (required) Fail(Status::Invalid(what_ + ": missing required field '" + key + "'"));
    return;
  }
  if (!v->is_string()) {
    Fail(Status::Invalid(what_ + ": field '" + key + "' must be a string"));
    return;
  }
  *out = v->AsString();
}

void ObjectReader::Int(const char* key, int64_t* out, bool required, int64_t lo,
                       int64_t hi) {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    if (required) Fail(Status::Invalid(what_ + ": missing required field '" + key + "'"));
    return;
  }
  if (!v->is_int()) {
    Fail(Status::Invalid(what_ + ": field '" + key + "' must be an integer"));
    return;
  }
  if (v->AsInt() < lo || v->AsInt() > hi) {
    Fail(Status::OutOfRange(what_ + ": field '" + key + "'=" +
                            std::to_string(v->AsInt()) + " outside [" +
                            std::to_string(lo) + ", " + std::to_string(hi) + "]"));
    return;
  }
  *out = v->AsInt();
}

void ObjectReader::Double(const char* key, double* out, bool required) {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    if (required) Fail(Status::Invalid(what_ + ": missing required field '" + key + "'"));
    return;
  }
  if (!v->is_number()) {
    Fail(Status::Invalid(what_ + ": field '" + key + "' must be a number"));
    return;
  }
  *out = v->AsDouble();
}

void ObjectReader::Bool(const char* key, bool* out, bool required) {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    if (required) Fail(Status::Invalid(what_ + ": missing required field '" + key + "'"));
    return;
  }
  if (!v->is_bool()) {
    Fail(Status::Invalid(what_ + ": field '" + key + "' must be a boolean"));
    return;
  }
  *out = v->AsBool();
}

void ObjectReader::StringArray(const char* key, std::vector<std::string>* out,
                               bool required) {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    if (required) Fail(Status::Invalid(what_ + ": missing required field '" + key + "'"));
    return;
  }
  if (!v->is_array()) {
    Fail(Status::Invalid(what_ + ": field '" + key + "' must be an array"));
    return;
  }
  out->clear();
  for (const JsonValue& item : v->items()) {
    if (!item.is_string()) {
      Fail(Status::Invalid(what_ + ": field '" + key + "' must contain strings only"));
      return;
    }
    out->push_back(item.AsString());
  }
}

const JsonValue* ObjectReader::Child(const char* key, bool required) {
  const JsonValue* v = Get(key);
  if (v == nullptr && required) {
    Fail(Status::Invalid(what_ + ": missing required field '" + key + "'"));
  }
  return v;
}

Status ObjectReader::Finish() {
  if (!status_.ok()) return status_;
  std::vector<std::string> unknown;
  for (size_t i = 0; i < consumed_.size(); ++i) {
    if (!consumed_[i]) unknown.push_back("'" + value_.members()[i].first + "'");
  }
  if (!unknown.empty()) {
    return Status::Invalid(what_ + ": unknown field(s) " + Join(unknown, ", "));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Scalars.

JsonValue ValueToJson(const Value& v) {
  if (v.is_null()) return JsonValue::MakeNull();
  if (v.is_int()) return JsonValue::Int(v.AsInt());
  if (v.is_double()) return JsonValue::Double(v.AsDouble());
  return JsonValue::Str(v.AsString());
}

Result<Value> ValueFromJson(const JsonValue& j) {
  switch (j.kind()) {
    case JsonValue::Kind::kNull:
      return Value();
    case JsonValue::Kind::kInt:
      return Value(j.AsInt());
    case JsonValue::Kind::kDouble:
      return Value(j.AsDouble());
    case JsonValue::Kind::kString:
      return Value(j.AsString());
    default:
      return Status::Invalid("table cell must be null, number, or string");
  }
}

JsonValue Codec<std::vector<Value>>::Encode(const std::vector<Value>& row) {
  JsonValue arr = JsonValue::Array();
  for (const Value& cell : row) arr.Append(ValueToJson(cell));
  return arr;
}

Status Codec<std::vector<Value>>::Decode(const JsonValue& j,
                                         const std::string& path,
                                         std::vector<Value>* out) {
  if (!j.is_array()) return Status::Invalid(path + ": a row must be an array");
  out->clear();
  out->reserve(j.size());
  for (const JsonValue& cell : j.items()) {
    IFGEN_ASSIGN_OR_RETURN(Value v, ValueFromJson(cell));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

namespace {

Result<Algorithm> ParseAlgorithm(const std::string& name) {
  for (Algorithm a : {Algorithm::kMcts, Algorithm::kRandom, Algorithm::kGreedy,
                      Algorithm::kBeam, Algorithm::kExhaustive, Algorithm::kBottomUp}) {
    if (name == AlgorithmName(a)) return a;
  }
  return Status::Invalid("unknown algorithm '" + name +
                         "' (expected mcts|random|greedy|beam|exhaustive|bottom-up)");
}

Result<BackendKind> ParseBackendKind(const std::string& name) {
  for (BackendKind k :
       {BackendKind::kReference, BackendKind::kColumnar, BackendKind::kSqlite}) {
    if (name == BackendKindName(k)) return k;
  }
  return Status::Invalid("unknown backend '" + name +
                         "' (expected reference|columnar|sqlite)");
}

/// `parallel_mode` stays on the v1 wire for compatibility; root parallelism
/// is the only mode.
Status CheckRootParallel(const std::string& name) {
  if (name == "root") return Status::OK();
  return Status::Invalid("unknown parallel_mode '" + name + "' (expected root)");
}

}  // namespace

// ---------------------------------------------------------------------------
// ErrorBody.

bool ErrorBody::RetryableCode(StatusCode code) {
  return code == StatusCode::kResourceExhausted ||
         code == StatusCode::kUnavailable;
}

ErrorBody ErrorBody::FromStatus(const Status& s) {
  ErrorBody e;
  e.code = StatusCodeName(s.ok() ? StatusCode::kInternal : s.code());
  e.message = s.ok() ? "error body built from OK status" : s.message();
  e.retryable = !s.ok() && RetryableCode(s.code());
  return e;
}

Status ErrorBody::ToStatus() const {
  for (int c = 1; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
    StatusCode sc = static_cast<StatusCode>(c);
    if (code == StatusCodeName(sc)) return Status(sc, message);
  }
  return Status::Internal("unrecognized error code '" + code + "': " + message);
}

IFGEN_WIRE_FIELDS(ErrorBody, "ErrorBody",
                  Field<&ErrorBody::code>("code").Required(),
                  Field<&ErrorBody::message>("message").Required(),
                  Field<&ErrorBody::retryable>("retryable"))

JsonValue ErrorBody::ToJson() const { return WireEncode(*this); }

Result<ErrorBody> ErrorBody::FromJson(const JsonValue& v) {
  IFGEN_ASSIGN_OR_RETURN(ErrorBody e, WireDecode<ErrorBody>(v));
  // The sent bit is accepted but not trusted (a pre-retryable payload has
  // none): the classification is always re-derived from `code`.
  e.retryable = RetryableCode(e.ToStatus().code());
  return e;
}

// ---------------------------------------------------------------------------
// ApiOptions.

Result<GeneratorOptions> ApiOptions::ToGeneratorOptions() const {
  GeneratorOptions o;
  IFGEN_ASSIGN_OR_RETURN(o.algorithm, ParseAlgorithm(algorithm));
  IFGEN_ASSIGN_OR_RETURN(o.backend, ParseBackendKind(backend));
  IFGEN_RETURN_NOT_OK(CheckRootParallel(parallel_mode));
  if (screen_width < 10 || screen_width > 10000 || screen_height < 5 ||
      screen_height > 10000) {
    return Status::OutOfRange("screen must be within [10,10000]x[5,10000], got " +
                              std::to_string(screen_width) + "x" +
                              std::to_string(screen_height));
  }
  if (time_budget_ms < 0 || time_budget_ms > 10 * 60 * 1000) {
    return Status::OutOfRange("time_budget_ms must be in [0, 600000], got " +
                              std::to_string(time_budget_ms));
  }
  if (max_iterations < 0) {
    return Status::OutOfRange("max_iterations must be >= 0");
  }
  if (deadline_ms < 0 || deadline_ms > 10 * 60 * 1000) {
    return Status::OutOfRange("deadline_ms must be in [0, 600000], got " +
                              std::to_string(deadline_ms));
  }
  if (target_cost < 0.0) {
    return Status::OutOfRange("target_cost must be >= 0");
  }
  if (plateau_fraction < 0.0 || plateau_fraction > 1.0) {
    return Status::OutOfRange("plateau_fraction must be in [0, 1], got " +
                              std::to_string(plateau_fraction));
  }
  if (time_budget_ms == 0 && max_iterations == 0 && deadline_ms == 0) {
    return Status::OutOfRange(
        "unbounded search: time_budget_ms == 0 requires max_iterations > 0 "
        "or deadline_ms > 0");
  }
  if (seed < 0) return Status::OutOfRange("seed must be >= 0");
  if (num_threads < 1 || num_threads > 64) {
    return Status::OutOfRange("num_threads must be in [1, 64], got " +
                              std::to_string(num_threads));
  }
  if (k_assignments < 1 || k_assignments > 64) {
    return Status::OutOfRange("k_assignments must be in [1, 64], got " +
                              std::to_string(k_assignments));
  }
  o.screen.width = static_cast<int>(screen_width);
  o.screen.height = static_cast<int>(screen_height);
  o.search.time_budget_ms = time_budget_ms;
  o.search.max_iterations = static_cast<size_t>(max_iterations);
  o.search.seed = static_cast<uint64_t>(seed);
  o.search.priors.use_priors = use_priors;
  o.search.priors.progressive_widening = progressive_widening;
  o.search.time_control.deadline_ms = deadline_ms;
  o.search.time_control.target_cost = target_cost;
  o.search.time_control.plateau_fraction = plateau_fraction;
  o.parallel.num_threads = static_cast<size_t>(num_threads);
  o.k_assignments = static_cast<size_t>(k_assignments);
  o.experience = experience;
  return o;
}

ApiOptions ApiOptions::FromGeneratorOptions(const GeneratorOptions& o) {
  ApiOptions a;
  a.algorithm = std::string(AlgorithmName(o.algorithm));
  a.backend = std::string(BackendKindName(o.backend));
  a.time_budget_ms = o.search.time_budget_ms;
  a.max_iterations = static_cast<int64_t>(o.search.max_iterations);
  a.seed = static_cast<int64_t>(o.search.seed);
  a.screen_width = o.screen.width;
  a.screen_height = o.screen.height;
  a.num_threads = static_cast<int64_t>(o.parallel.num_threads);
  a.k_assignments = static_cast<int64_t>(o.k_assignments);
  a.use_priors = o.search.priors.use_priors;
  a.progressive_widening = o.search.priors.progressive_widening;
  a.experience = o.experience;
  a.deadline_ms = o.search.time_control.deadline_ms;
  a.target_cost = o.search.time_control.target_cost;
  a.plateau_fraction = o.search.time_control.plateau_fraction;
  return a;
}

IFGEN_WIRE_FIELDS(ApiOptions, "options",
                  Field<&ApiOptions::algorithm>("algorithm"),
                  Field<&ApiOptions::backend>("backend"),
                  Field<&ApiOptions::parallel_mode>("parallel_mode"),
                  Field<&ApiOptions::time_budget_ms>("time_budget_ms"),
                  Field<&ApiOptions::max_iterations>("max_iterations"),
                  Field<&ApiOptions::seed>("seed"),
                  Field<&ApiOptions::screen_width>("screen_width"),
                  Field<&ApiOptions::screen_height>("screen_height"),
                  Field<&ApiOptions::num_threads>("num_threads"),
                  Field<&ApiOptions::k_assignments>("k_assignments"),
                  Field<&ApiOptions::use_priors>("use_priors"),
                  Field<&ApiOptions::progressive_widening>("progressive_widening"),
                  Field<&ApiOptions::delta_cost_eval>("delta_cost_eval"),
                  Field<&ApiOptions::cache_peering>("cache_peering"),
                  Field<&ApiOptions::experience>("experience"),
                  Field<&ApiOptions::deadline_ms>("deadline_ms"),
                  Field<&ApiOptions::target_cost>("target_cost"),
                  Field<&ApiOptions::plateau_fraction>("plateau_fraction"))
IFGEN_WIRE_CODEC(ApiOptions)

// ---------------------------------------------------------------------------
// Generation.

IFGEN_WIRE_FIELDS(GenerateRequest, "GenerateRequest",
                  Field<&GenerateRequest::workload>("workload"),
                  Field<&GenerateRequest::sqls>("sqls"),
                  Field<&GenerateRequest::options>("options"))
IFGEN_WIRE_CODEC(GenerateRequest)

IFGEN_WIRE_FIELDS(GenerateAccepted, "GenerateAccepted",
                  Field<&GenerateAccepted::job_id>("job_id").Required(),
                  Field<&GenerateAccepted::state>("state").Required())
IFGEN_WIRE_CODEC(GenerateAccepted)

IFGEN_WIRE_FIELDS(TracePoint, "TracePoint",
                  Field<&TracePoint::ms>("ms"),
                  Field<&TracePoint::iteration>("iteration"),
                  Field<&TracePoint::cost>("cost"))
IFGEN_WIRE_CODEC(TracePoint)

SearchStatsDto SearchStatsDto::FromStats(const SearchStats& s) {
  SearchStatsDto d;
  d.iterations = static_cast<int64_t>(s.iterations);
  d.states_expanded = static_cast<int64_t>(s.states_expanded);
  d.rollouts = static_cast<int64_t>(s.rollouts);
  d.elapsed_ms = s.elapsed_ms;
  d.trees = static_cast<int64_t>(s.trees);
  d.stop_reason = std::string(StopReasonName(s.stop_reason));
  d.trace.reserve(s.trace.size());
  for (const BestTrace& t : s.trace) {
    d.trace.push_back({t.ms, static_cast<int64_t>(t.iteration), t.cost});
  }
  return d;
}

IFGEN_WIRE_FIELDS(SearchStatsDto, "SearchStats",
                  Field<&SearchStatsDto::iterations>("iterations"),
                  Field<&SearchStatsDto::states_expanded>("states_expanded"),
                  Field<&SearchStatsDto::rollouts>("rollouts"),
                  Field<&SearchStatsDto::elapsed_ms>("elapsed_ms"),
                  Field<&SearchStatsDto::trees>("trees"),
                  Field<&SearchStatsDto::stop_reason>("stop_reason"),
                  Field<&SearchStatsDto::trace>("trace"))
IFGEN_WIRE_CODEC(SearchStatsDto)

IFGEN_WIRE_FIELDS(GenerateResponse, "GenerateResponse",
                  Field<&GenerateResponse::job_id>("job_id"),
                  Field<&GenerateResponse::workload>("workload"),
                  Field<&GenerateResponse::algorithm>("algorithm"),
                  Field<&GenerateResponse::backend>("backend"),
                  Field<&GenerateResponse::coverage>("coverage"),
                  Field<&GenerateResponse::cost>("cost"),
                  Field<&GenerateResponse::stats>("stats"),
                  Field<&GenerateResponse::difftree>("difftree"),
                  Field<&GenerateResponse::widgets>("widgets"))
IFGEN_WIRE_CODEC(GenerateResponse)

// The value half is named by the enclosing response ("result" on job
// status, "partial" on progress); see Inline.
IFGEN_WIRE_FIELDS(JobResultDto, "JobResult",
                  Field<&JobResultDto::value>(nullptr),
                  Field<&JobResultDto::error>("error"))

IFGEN_WIRE_FIELDS(JobStatusResponse, "JobStatusResponse",
                  Field<&JobStatusResponse::job_id>("job_id").Required(),
                  Field<&JobStatusResponse::state>("state").Required(),
                  Field<&JobStatusResponse::cache_hit>("cache_hit"),
                  Field<&JobStatusResponse::queued_ms>("queued_ms"),
                  Field<&JobStatusResponse::run_ms>("run_ms"),
                  Inline<&JobStatusResponse::result>("result"))
IFGEN_WIRE_CODEC(JobStatusResponse)

IFGEN_WIRE_FIELDS(JobProgressResponse, "JobProgressResponse",
                  Field<&JobProgressResponse::job_id>("job_id").Required(),
                  Field<&JobProgressResponse::state>("state").Required(),
                  Field<&JobProgressResponse::version>("version"),
                  Field<&JobProgressResponse::final_frame>("final"),
                  Inline<&JobProgressResponse::result>("partial"))
IFGEN_WIRE_CODEC(JobProgressResponse)

// ---------------------------------------------------------------------------
// Sessions.

IFGEN_WIRE_FIELDS(SessionOpenRequest, "SessionOpenRequest",
                  Field<&SessionOpenRequest::job_id>("job_id").Required(),
                  Field<&SessionOpenRequest::workload>("workload"),
                  Field<&SessionOpenRequest::backend>("backend"))
IFGEN_WIRE_CODEC(SessionOpenRequest)

TableDto TableDto::FromTable(const Table& t) {
  TableDto d;
  d.columns.reserve(t.num_columns());
  for (const ColumnDef& c : t.schema().columns) d.columns.push_back(c.name);
  d.rows.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::vector<Value> row;
    row.reserve(t.num_columns());
    for (size_t c = 0; c < t.num_columns(); ++c) row.push_back(t.At(r, c));
    d.rows.push_back(std::move(row));
  }
  return d;
}

IFGEN_WIRE_FIELDS(TableDto, "Table",
                  Field<&TableDto::columns>("columns"),
                  Field<&TableDto::rows>("rows"))

JsonValue TableDto::ToJson() const { return WireEncode(*this); }

Result<TableDto> TableDto::FromJson(const JsonValue& v) {
  IFGEN_ASSIGN_OR_RETURN(TableDto t, WireDecode<TableDto>(v));
  for (const std::vector<Value>& row : t.rows) {
    if (row.size() != t.columns.size()) {
      return Status::Invalid("Table: row arity " + std::to_string(row.size()) +
                             " != column count " + std::to_string(t.columns.size()));
    }
  }
  return t;
}

IFGEN_WIRE_FIELDS(SessionOpenResponse, "SessionOpenResponse",
                  Field<&SessionOpenResponse::session_id>("session_id").Required(),
                  Field<&SessionOpenResponse::sql>("sql"),
                  Field<&SessionOpenResponse::version>("version"),
                  Field<&SessionOpenResponse::table>("table"),
                  Field<&SessionOpenResponse::widgets>("widgets"))
IFGEN_WIRE_CODEC(SessionOpenResponse)

// ---------------------------------------------------------------------------
// Widget events: the kind selects the fields, so the codec is hand-written.

IFGEN_WIRE_FIELDS(WidgetEventRequest, "WidgetEventRequest",
                  Field<&WidgetEventRequest::kind>("kind"),
                  Field<&WidgetEventRequest::choice_id>("choice_id"),
                  Field<&WidgetEventRequest::option_index>("option_index"),
                  Field<&WidgetEventRequest::count>("count"),
                  Field<&WidgetEventRequest::present>("present"),
                  Field<&WidgetEventRequest::sql>("sql"))

JsonValue WidgetEventRequest::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("kind", JsonValue::Str(kind));
  if (kind == "set_any") {
    v.Set("choice_id", JsonValue::Int(choice_id));
    v.Set("option_index", JsonValue::Int(option_index));
  } else if (kind == "set_opt") {
    v.Set("choice_id", JsonValue::Int(choice_id));
    v.Set("present", JsonValue::Bool(present));
  } else if (kind == "set_multi") {
    v.Set("choice_id", JsonValue::Int(choice_id));
    v.Set("count", JsonValue::Int(count));
  } else if (kind == "load_query") {
    v.Set("sql", JsonValue::Str(sql));
  }
  return v;
}

Result<WidgetEventRequest> WidgetEventRequest::FromJson(const JsonValue& v) {
  WidgetEventRequest e;
  ObjectReader r(v, Fields<WidgetEventRequest>::kWhat);
  r.String("kind", &e.kind, /*required=*/true);
  // Consume exactly the fields the kind allows; anything else trips the
  // unknown-field guard in Finish() — a mis-targeted field is a client bug,
  // not something to ignore.
  if (e.kind == "set_any") {
    r.Int("choice_id", &e.choice_id, /*required=*/true);
    r.Int("option_index", &e.option_index, /*required=*/true);
  } else if (e.kind == "set_opt") {
    r.Int("choice_id", &e.choice_id, /*required=*/true);
    r.Bool("present", &e.present, /*required=*/true);
  } else if (e.kind == "set_multi") {
    r.Int("choice_id", &e.choice_id, /*required=*/true);
    r.Int("count", &e.count, /*required=*/true, 0);
  } else if (e.kind == "load_query") {
    r.String("sql", &e.sql, /*required=*/true);
  } else {
    return Status::Invalid(
        "WidgetEventRequest: unknown kind '" + e.kind +
        "' (expected set_any|set_opt|set_multi|load_query)");
  }
  IFGEN_RETURN_NOT_OK(r.Finish());
  return e;
}

// ---------------------------------------------------------------------------
// Step reports / change feed.

StepReportDto StepReportDto::FromReport(const InteractiveRuntime::StepReport& r) {
  StepReportDto d;
  d.transition = std::string(TransitionClassName(r.transition));
  d.incremental = r.incremental;
  d.from_cache = r.from_cache;
  d.widgets_changed = static_cast<int64_t>(r.widgets_changed);
  d.interaction_cost = r.interaction_cost;
  d.navigation_cost = r.navigation_cost;
  d.rows = static_cast<int64_t>(r.rows);
  d.rows_added = static_cast<int64_t>(r.rows_added);
  d.rows_removed = static_cast<int64_t>(r.rows_removed);
  d.rows_updated = static_cast<int64_t>(r.rows_updated);
  return d;
}

IFGEN_WIRE_FIELDS(StepReportDto, "StepReport",
                  Field<&StepReportDto::transition>("transition"),
                  Field<&StepReportDto::incremental>("incremental"),
                  Field<&StepReportDto::from_cache>("from_cache"),
                  Field<&StepReportDto::widgets_changed>("widgets_changed"),
                  Field<&StepReportDto::interaction_cost>("interaction_cost"),
                  Field<&StepReportDto::navigation_cost>("navigation_cost"),
                  Field<&StepReportDto::rows>("rows"),
                  Field<&StepReportDto::rows_added>("rows_added"),
                  Field<&StepReportDto::rows_removed>("rows_removed"),
                  Field<&StepReportDto::rows_updated>("rows_updated"))
IFGEN_WIRE_CODEC(StepReportDto)

RowChangeDto RowChangeDto::FromChange(const InteractiveRuntime::RowChange& c) {
  RowChangeDto d;
  switch (c.kind) {
    case InteractiveRuntime::RowChange::Kind::kAdd:
      d.kind = "add";
      break;
    case InteractiveRuntime::RowChange::Kind::kRemove:
      d.kind = "remove";
      break;
    case InteractiveRuntime::RowChange::Kind::kUpdate:
      d.kind = "update";
      break;
  }
  d.row = c.row;
  d.old_row = c.old_row;
  return d;
}

// `old_row` travels on updates only, so the codec is hand-written.
IFGEN_WIRE_FIELDS(RowChangeDto, "RowChange",
                  Field<&RowChangeDto::kind>("kind"),
                  Field<&RowChangeDto::row>("row"),
                  Field<&RowChangeDto::old_row>("old_row"))

JsonValue RowChangeDto::ToJson() const {
  using Row = Codec<std::vector<Value>>;
  JsonValue v = JsonValue::Object();
  v.Set("kind", JsonValue::Str(kind));
  v.Set("row", Row::Encode(row));
  if (kind == "update") v.Set("old_row", Row::Encode(old_row));
  return v;
}

Result<RowChangeDto> RowChangeDto::FromJson(const JsonValue& v) {
  using Row = Codec<std::vector<Value>>;
  RowChangeDto d;
  ObjectReader r(v, Fields<RowChangeDto>::kWhat);
  r.String("kind", &d.kind, /*required=*/true);
  const JsonValue* row = r.Child("row", /*required=*/true);
  const JsonValue* old_row = d.kind == "update" ? r.Child("old_row") : nullptr;
  IFGEN_RETURN_NOT_OK(r.Finish());
  if (d.kind != "add" && d.kind != "remove" && d.kind != "update") {
    return Status::Invalid("RowChange: unknown kind '" + d.kind + "'");
  }
  IFGEN_RETURN_NOT_OK(Row::Decode(*row, "RowChange.row", &d.row));
  if (old_row != nullptr) {
    IFGEN_RETURN_NOT_OK(Row::Decode(*old_row, "RowChange.old_row", &d.old_row));
  }
  return d;
}

ChangeBatchDto ChangeBatchDto::FromBatch(const InteractiveRuntime::ChangeBatch& b) {
  ChangeBatchDto d;
  d.from_version = static_cast<int64_t>(b.from_version);
  d.to_version = static_cast<int64_t>(b.to_version);
  d.last_step = StepReportDto::FromReport(b.last_step);
  d.changes.reserve(b.changes.size());
  for (const InteractiveRuntime::RowChange& c : b.changes) {
    d.changes.push_back(RowChangeDto::FromChange(c));
  }
  return d;
}

IFGEN_WIRE_FIELDS(ChangeBatchDto, "ChangeBatch",
                  Field<&ChangeBatchDto::from_version>("from_version"),
                  Field<&ChangeBatchDto::to_version>("to_version"),
                  Field<&ChangeBatchDto::last_step>("last_step"),
                  Field<&ChangeBatchDto::changes>("changes"))
IFGEN_WIRE_CODEC(ChangeBatchDto)

IFGEN_WIRE_FIELDS(StepResponse, "StepResponse",
                  Field<&StepResponse::session_id>("session_id").Required(),
                  Field<&StepResponse::sql>("sql"),
                  Field<&StepResponse::version>("version"),
                  Field<&StepResponse::report>("report"),
                  Field<&StepResponse::batch>("batch"))
IFGEN_WIRE_CODEC(StepResponse)

// ---------------------------------------------------------------------------
// Introspection.

IFGEN_WIRE_FIELDS(TableInfo, "TableInfo",
                  Field<&TableInfo::name>("name").Required(),
                  Field<&TableInfo::rows>("rows"),
                  Field<&TableInfo::columns>("columns"))
IFGEN_WIRE_CODEC(TableInfo)

IFGEN_WIRE_FIELDS(WorkloadInfo, "WorkloadInfo",
                  Field<&WorkloadInfo::name>("name").Required(),
                  Field<&WorkloadInfo::queries>("queries"),
                  Field<&WorkloadInfo::tables>("tables"))
IFGEN_WIRE_CODEC(WorkloadInfo)

IFGEN_WIRE_FIELDS(CatalogResponse, "CatalogResponse",
                  Field<&CatalogResponse::workloads>("workloads"),
                  Field<&CatalogResponse::backends>("backends"))
IFGEN_WIRE_CODEC(CatalogResponse)

IFGEN_WIRE_FIELDS(BackendStatsDto, "BackendStats",
                  Field<&BackendStatsDto::workload>("workload"),
                  Field<&BackendStatsDto::backend>("backend").Required(),
                  Field<&BackendStatsDto::prepares>("prepares"),
                  Field<&BackendStatsDto::plan_cache_hits>("plan_cache_hits"),
                  Field<&BackendStatsDto::executions>("executions"))
IFGEN_WIRE_CODEC(BackendStatsDto)

IFGEN_WIRE_FIELDS(WorkerStatsDto, "WorkerStatsDto",
                  Field<&WorkerStatsDto::worker>("worker").Required().AtLeast(0),
                  Field<&WorkerStatsDto::address>("address").Required(),
                  Field<&WorkerStatsDto::healthy>("healthy"),
                  Field<&WorkerStatsDto::draining>("draining"),
                  Field<&WorkerStatsDto::jobs_submitted>("jobs_submitted"),
                  Field<&WorkerStatsDto::jobs_executed>("jobs_executed"),
                  Field<&WorkerStatsDto::jobs_pending>("jobs_pending"),
                  Field<&WorkerStatsDto::sessions_active>("sessions_active"),
                  Field<&WorkerStatsDto::rpcs>("rpcs"),
                  Field<&WorkerStatsDto::rpc_failures>("rpc_failures"),
                  Field<&WorkerStatsDto::reconnects>("reconnects"),
                  Field<&WorkerStatsDto::cache_probes>("cache_probes"),
                  Field<&WorkerStatsDto::cache_probe_hits>("cache_probe_hits"),
                  Field<&WorkerStatsDto::result_peer_hits>("result_peer_hits"))
IFGEN_WIRE_CODEC(WorkerStatsDto)

IFGEN_WIRE_FIELDS(ClusterResponse, "ClusterResponse",
                  Field<&ClusterResponse::mode>("mode").Required(),
                  Field<&ClusterResponse::workers>("workers"))
IFGEN_WIRE_CODEC(ClusterResponse)

// StatsResponse's nested wire groups.
constexpr FieldDef<StatsResponse> kStatsJobs[] = {
    Field<&StatsResponse::jobs_submitted>("submitted"),
    Field<&StatsResponse::jobs_executed>("executed"),
    Field<&StatsResponse::jobs_pending>("pending"),
    Field<&StatsResponse::job_cache_hits>("cache_hits")};
constexpr FieldDef<StatsResponse> kStatsSessions[] = {
    Field<&StatsResponse::sessions_opened>("opened"),
    Field<&StatsResponse::sessions_active>("active"),
    Field<&StatsResponse::sessions_expired>("expired")};
constexpr FieldDef<StatsResponse> kStatsRuntime[] = {
    Field<&StatsResponse::steps>("steps"),
    Field<&StatsResponse::noops>("noops"),
    Field<&StatsResponse::result_cache_hits>("result_cache_hits"),
    Field<&StatsResponse::delta_execs>("delta_execs"),
    Field<&StatsResponse::retruncates>("retruncates"),
    Field<&StatsResponse::full_execs>("full_execs"),
    Field<&StatsResponse::fallbacks>("fallbacks")};
constexpr FieldDef<StatsResponse> kStatsLearn[] = {
    Field<&StatsResponse::learn_store_entries>("store_entries"),
    Field<&StatsResponse::learn_hits>("hits"),
    Field<&StatsResponse::learn_misses>("misses"),
    Field<&StatsResponse::learn_seeded>("seeded"),
    Field<&StatsResponse::learn_recorded>("recorded"),
    Field<&StatsResponse::learn_saves>("saves"),
    Field<&StatsResponse::learn_loads>("loads")};
constexpr FieldDef<StatsResponse> kStatsCluster[] = {
    Field<&StatsResponse::cluster_workers>("workers")};

IFGEN_WIRE_FIELDS(StatsResponse, "StatsResponse",
                  Group<kStatsJobs>("jobs"),
                  Group<kStatsSessions>("sessions"),
                  Group<kStatsRuntime>("runtime"),
                  Field<&StatsResponse::backends>("backends"),
                  Group<kStatsLearn>("learn"),
                  Group<kStatsCluster>("cluster"))
IFGEN_WIRE_CODEC(StatsResponse)

template void AddCounters(const StatsResponse&, StatsResponse*);
template void AddCounters(const BackendStatsDto&, BackendStatsDto*);

}  // namespace api
}  // namespace ifgen
