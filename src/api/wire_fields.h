#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "api/dto.h"
#include "util/json.h"
#include "util/status.h"

namespace ifgen {
namespace api {

/// \brief Declared-once wire fields: each v1 DTO lists its fields in one
/// table (wire name, member, required flag, integer lower bound), and that
/// table alone drives its ToJson, FromJson, operator== and the cluster
/// router's counter sum. Internal to src/api (dto.cc and rpc.cc).
///
/// Encoding emits the fields in table order. Decoding keeps the strict
/// reader's order of checks: scalars are read and nested members consumed
/// first, then ObjectReader::Finish() rejects unknown fields, and nested
/// DTOs and arrays decode last.

template <typename T>
struct FieldDef {
  using Class = T;

  const char* name = nullptr;
  bool required = false;
  int64_t lo = INT64_MIN;
  /// Sets this field of `x` on `obj` (absent optionals are omitted).
  void (*encode)(const FieldDef& f, const T& x, JsonValue* obj) = nullptr;
  /// Before Finish(): reads a scalar, or marks a nested member consumed.
  void (*read)(const FieldDef& f, ObjectReader* r, T* out) = nullptr;
  /// After Finish(): decodes a nested member (scalars: no-op). `what`
  /// names the enclosing object in errors.
  Status (*decode)(const FieldDef& f, const JsonValue& obj,
                   const std::string& what, T* out) = nullptr;
  bool (*equal)(const T& a, const T& b) = nullptr;
  /// Adds an integer counter of `from` into `into`; null for non-counters.
  void (*add)(const T& from, T* into) = nullptr;

  constexpr FieldDef Required() const {
    FieldDef f = *this;
    f.required = true;
    return f;
  }
  /// Inclusive lower bound for an integer field (OutOfRange below it).
  constexpr FieldDef AtLeast(int64_t bound) const {
    FieldDef f = *this;
    f.lo = bound;
    return f;
  }
};

/// One DTO's table, specialized by IFGEN_WIRE_FIELDS: `kWhat` names the DTO
/// in decode errors, `kList` holds its fields in wire order.
template <typename T>
struct Fields;

// ---------------------------------------------------------------------------
// Type codecs: how one member type travels. Scalars are read before
// Finish(); everything else is nested and decodes after it.

template <bool kIsScalar>
struct CodecBase {
  static constexpr bool kScalar = kIsScalar;
  template <typename V>
  static bool Present(const V&) {
    return true;
  }
};
using ScalarCodec = CodecBase<true>;
using NestedCodec = CodecBase<false>;

/// Nested DTO: its own ToJson/FromJson.
template <typename D>
struct Codec : NestedCodec {
  static JsonValue Encode(const D& d) { return d.ToJson(); }
  static Status Decode(const JsonValue& j, const std::string&, D* out) {
    IFGEN_ASSIGN_OR_RETURN(*out, D::FromJson(j));
    return Status::OK();
  }
};

/// Half of a response that may be absent: omitted, not null, when empty.
template <typename D>
struct Codec<std::optional<D>> : NestedCodec {
  static bool Present(const std::optional<D>& d) { return d.has_value(); }
  static JsonValue Encode(const std::optional<D>& d) {
    return Codec<D>::Encode(*d);
  }
  static Status Decode(const JsonValue& j, const std::string& path,
                       std::optional<D>* out) {
    D d;
    IFGEN_RETURN_NOT_OK(Codec<D>::Decode(j, path, &d));
    *out = std::move(d);
    return Status::OK();
  }
};

/// Array of nested values; `path` ("Dto.field") prefixes element errors.
template <typename D>
struct Codec<std::vector<D>> : NestedCodec {
  static JsonValue Encode(const std::vector<D>& items) {
    JsonValue arr = JsonValue::Array();
    for (const D& item : items) arr.Append(Codec<D>::Encode(item));
    return arr;
  }
  static Status Decode(const JsonValue& j, const std::string& path,
                       std::vector<D>* out) {
    if (!j.is_array()) return Status::Invalid(path + ": must be an array");
    out->clear();
    out->reserve(j.size());
    for (const JsonValue& item : j.items()) {
      D d;
      IFGEN_RETURN_NOT_OK(Codec<D>::Decode(item, path, &d));
      out->push_back(std::move(d));
    }
    return Status::OK();
  }
};

// Scalars map onto the ObjectReader accessors.
template <>
struct Codec<std::string> : ScalarCodec {
  static JsonValue Encode(const std::string& s) { return JsonValue::Str(s); }
  static void Read(ObjectReader* r, const char* name, std::string* out,
                   bool required, int64_t) {
    r->String(name, out, required);
  }
};

template <>
struct Codec<int64_t> : ScalarCodec {
  static JsonValue Encode(int64_t i) { return JsonValue::Int(i); }
  static void Read(ObjectReader* r, const char* name, int64_t* out,
                   bool required, int64_t lo) {
    r->Int(name, out, required, lo);
  }
};

template <>
struct Codec<double> : ScalarCodec {
  static JsonValue Encode(double d) { return JsonValue::Double(d); }
  static void Read(ObjectReader* r, const char* name, double* out,
                   bool required, int64_t) {
    r->Double(name, out, required);
  }
};

template <>
struct Codec<bool> : ScalarCodec {
  static JsonValue Encode(bool b) { return JsonValue::Bool(b); }
  static void Read(ObjectReader* r, const char* name, bool* out, bool required,
                   int64_t) {
    r->Bool(name, out, required);
  }
};

template <>
struct Codec<std::vector<std::string>> : ScalarCodec {
  static JsonValue Encode(const std::vector<std::string>& items) {
    JsonValue arr = JsonValue::Array();
    for (const std::string& s : items) arr.Append(JsonValue::Str(s));
    return arr;
  }
  static void Read(ObjectReader* r, const char* name,
                   std::vector<std::string>* out, bool required, int64_t) {
    r->StringArray(name, out, required);
  }
};

/// Opaque JSON subtree (cost, difftree, widgets, RPC payloads), kept as is.
template <>
struct Codec<JsonValue> : NestedCodec {
  static JsonValue Encode(const JsonValue& j) { return j; }
  static Status Decode(const JsonValue& j, const std::string&, JsonValue* out) {
    *out = j;
    return Status::OK();
  }
};

/// One row of exact engine scalars.
template <>
struct Codec<std::vector<Value>> : NestedCodec {
  static JsonValue Encode(const std::vector<Value>& row);
  static Status Decode(const JsonValue& j, const std::string& path,
                       std::vector<Value>* out);
};

// ---------------------------------------------------------------------------
// Walking a table.

template <typename T, size_t N>
void EncodeList(const FieldDef<T> (&list)[N], const T& x, JsonValue* obj) {
  for (const FieldDef<T>& f : list) f.encode(f, x, obj);
}

template <typename T, size_t N>
Status DecodeList(const FieldDef<T> (&list)[N], const JsonValue& v,
                  const std::string& what, T* out) {
  ObjectReader r(v, what);
  for (const FieldDef<T>& f : list) f.read(f, &r, out);
  IFGEN_RETURN_NOT_OK(r.Finish());
  for (const FieldDef<T>& f : list) {
    IFGEN_RETURN_NOT_OK(f.decode(f, v, what, out));
  }
  return Status::OK();
}

template <typename T, size_t N>
bool EqualList(const FieldDef<T> (&list)[N], const T& a, const T& b) {
  for (const FieldDef<T>& f : list) {
    if (!f.equal(a, b)) return false;
  }
  return true;
}

template <typename T, size_t N>
void AddList(const FieldDef<T> (&list)[N], const T& from, T* into) {
  for (const FieldDef<T>& f : list) {
    if (f.add != nullptr) f.add(from, into);
  }
}

template <typename T>
JsonValue WireEncode(const T& x) {
  JsonValue v = JsonValue::Object();
  EncodeList(Fields<T>::kList, x, &v);
  return v;
}

template <typename T>
Result<T> WireDecode(const JsonValue& v) {
  T x;
  IFGEN_RETURN_NOT_OK(DecodeList(Fields<T>::kList, v, Fields<T>::kWhat, &x));
  return x;
}

template <typename T>
void AddCounters(const T& from, T* into) {
  AddList(Fields<T>::kList, from, into);
}

// ---------------------------------------------------------------------------
// Table entries.

template <typename P>
struct MemberPtr;
template <typename C, typename V>
struct MemberPtr<V C::*> {
  using Class = C;
  using Value = V;
};

/// A plain member: `Field<&Dto::member>("wire_name")`.
template <auto M>
constexpr auto Field(const char* name) {
  using T = typename MemberPtr<decltype(M)>::Class;
  using V = typename MemberPtr<decltype(M)>::Value;
  using C = Codec<V>;
  FieldDef<T> f{};
  f.name = name;
  f.encode = [](const FieldDef<T>& d, const T& x, JsonValue* obj) {
    if (C::Present(x.*M)) obj->Set(d.name, C::Encode(x.*M));
  };
  f.read = [](const FieldDef<T>& d, ObjectReader* r, T* out) {
    if constexpr (C::kScalar) {
      C::Read(r, d.name, &(out->*M), d.required, d.lo);
    } else {
      r->Child(d.name, d.required);
    }
  };
  f.decode = [](const FieldDef<T>& d, const JsonValue& obj,
                const std::string& what, T* out) -> Status {
    if constexpr (!C::kScalar) {
      if (const JsonValue* j = obj.Find(d.name)) {
        return C::Decode(*j, what + "." + d.name, &(out->*M));
      }
    }
    return Status::OK();
  };
  f.equal = [](const T& a, const T& b) { return a.*M == b.*M; };
  if constexpr (std::is_same_v<V, int64_t>) {
    f.add = [](const T& from, T* into) { into->*M += from.*M; };
  }
  return f;
}

/// A nested wire object over the same DTO's members (StatsResponse's
/// "jobs", "sessions", ... groups): `Group<kSubList>("wire_name")`.
template <const auto& kSub>
constexpr auto Group(const char* name) {
  using T = typename std::remove_cv_t<
      std::remove_extent_t<std::remove_reference_t<decltype(kSub)>>>::Class;
  FieldDef<T> f{};
  f.name = name;
  f.encode = [](const FieldDef<T>& d, const T& x, JsonValue* obj) {
    JsonValue sub = JsonValue::Object();
    EncodeList(kSub, x, &sub);
    obj->Set(d.name, std::move(sub));
  };
  f.read = [](const FieldDef<T>& d, ObjectReader* r, T*) {
    r->Child(d.name, d.required);
  };
  f.decode = [](const FieldDef<T>& d, const JsonValue& obj,
                const std::string& what, T* out) -> Status {
    const JsonValue* j = obj.Find(d.name);
    return j == nullptr ? Status::OK()
                        : DecodeList(kSub, *j, what + "." + d.name, out);
  };
  f.equal = [](const T& a, const T& b) { return EqualList(kSub, a, b); };
  f.add = [](const T& from, T* into) { AddList(kSub, from, into); };
  return f;
}

/// A member DTO whose fields sit directly in the enclosing object
/// (JobResultDto's halves): `Inline<&Dto::member>("wire_name")`. The inner
/// table's unnamed field takes `wire_name`.
template <auto M>
constexpr auto Inline(const char* name) {
  using T = typename MemberPtr<decltype(M)>::Class;
  using D = typename MemberPtr<decltype(M)>::Value;
  FieldDef<T> f{};
  f.name = name;
  f.encode = [](const FieldDef<T>& d, const T& x, JsonValue* obj) {
    for (FieldDef<D> g : Fields<D>::kList) {
      if (g.name == nullptr) g.name = d.name;
      g.encode(g, x.*M, obj);
    }
  };
  f.read = [](const FieldDef<T>& d, ObjectReader* r, T* out) {
    for (FieldDef<D> g : Fields<D>::kList) {
      if (g.name == nullptr) g.name = d.name;
      g.read(g, r, &(out->*M));
    }
  };
  f.decode = [](const FieldDef<T>& d, const JsonValue& obj,
                const std::string& what, T* out) -> Status {
    for (FieldDef<D> g : Fields<D>::kList) {
      if (g.name == nullptr) g.name = d.name;
      IFGEN_RETURN_NOT_OK(g.decode(g, obj, what, &(out->*M)));
    }
    return Status::OK();
  };
  f.equal = [](const T& a, const T& b) { return a.*M == b.*M; };
  return f;
}

/// Declares T's table (`what` names T in decode errors) and defines
/// T::operator== over it.
#define IFGEN_WIRE_FIELDS(T, what, ...)                                 \
  template <>                                                           \
  struct Fields<T> {                                                    \
    static constexpr const char* kWhat = what;                          \
    static constexpr FieldDef<T> kList[] = {__VA_ARGS__};               \
  };                                                                    \
  bool T::operator==(const T& o) const {                                \
    return EqualList(Fields<T>::kList, *this, o);                       \
  }

/// Defines T::ToJson and T::FromJson from T's table.
#define IFGEN_WIRE_CODEC(T)                                             \
  JsonValue T::ToJson() const { return WireEncode(*this); }             \
  Result<T> T::FromJson(const JsonValue& v) { return WireDecode<T>(v); }

}  // namespace api
}  // namespace ifgen
