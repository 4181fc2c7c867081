// rmclint:hotpath — the one store executor behind every wire
#include "memcached/command.hpp"

#include <cstring>

#include "memcached/store.hpp"
#include "memcached/ucr_proto.hpp"

namespace rmc::mc {

namespace {

constexpr OutcomeRow kOutcomeRows[] = {
#define RMC_MC_OUTCOME_ROW(code, text, binary, ucr, errc, message)                         \
  {proto::Response::Type::text, message, bproto::BStatus::binary, ucrp::RStatus::ucr, \
   Errc::errc},
    RMC_MC_OUTCOMES(RMC_MC_OUTCOME_ROW)
#undef RMC_MC_OUTCOME_ROW
};

/// The first row `match` accepts; unsupported when none does.
template <class Match>
Code find_row(Match match) {
  for (std::size_t i = 0; i < std::size(kOutcomeRows); ++i) {
    if (match(kOutcomeRows[i])) return static_cast<Code>(i);
  }
  return Code::unsupported;
}

SetMode set_mode(Op op) {
  switch (op) {
    case Op::add: return SetMode::add;
    case Op::replace: return SetMode::replace;
    case Op::append: return SetMode::append;
    case Op::prepend: return SetMode::prepend;
    case Op::cas: return SetMode::cas;
    default: return SetMode::set;
  }
}

}  // namespace

const OutcomeRow& outcome_row(Code code) { return kOutcomeRows[static_cast<std::size_t>(code)]; }

Code store_code(Errc e) {
  switch (e) {
    case Errc::not_stored: return Code::not_stored;
    case Errc::exists: return Code::exists;
    case Errc::not_found: return Code::not_found;
    case Errc::too_large: return Code::too_large;
    case Errc::invalid_argument: return Code::bad_format;
    default: return Code::out_of_memory;
  }
}

Code success(Op op) {
  switch (op) {
    case Op::get:
    case Op::gets:
    case Op::mget: return Code::value;
    case Op::set:
    case Op::add:
    case Op::replace:
    case Op::append:
    case Op::prepend:
    case Op::cas: return Code::stored;
    case Op::del: return Code::deleted;
    case Op::incr:
    case Op::decr: return Code::number;
    case Op::touch: return Code::touched;
    case Op::flush_all:
    case Op::version: return Code::ok;
  }
  return Code::ok;
}

bool idempotent(Op op) {
  switch (op) {
    case Op::incr:
    case Op::decr:
    case Op::append:
    case Op::prepend:
    case Op::add:
    case Op::cas: return false;
    default: return true;
  }
}

bproto::BStatus binary_status(Op op, Code code) {
  if (code == Code::not_stored && op == Op::add) return bproto::BStatus::key_exists;
  if (code == Code::not_stored && op == Op::replace) return bproto::BStatus::key_not_found;
  const bproto::BStatus status = outcome_row(code).binary;
  const bool appends = op == Op::append || op == Op::prepend;
  return appends && status != bproto::BStatus::ok ? bproto::BStatus::not_stored : status;
}

Code text_code(const proto::Response& reply) {
  if (reply.type == proto::Response::Type::values && reply.values.empty()) return Code::not_found;
  return find_row([&](const OutcomeRow& row) {
    return row.text == reply.type && row.message == reply.message;
  });
}

Code binary_code(Op op, bproto::BStatus status) {
  if (status == bproto::BStatus::ok) return success(op);
  if (op == Op::add && status == bproto::BStatus::key_exists) return Code::not_stored;
  if (op == Op::replace && status == bproto::BStatus::key_not_found) return Code::not_stored;
  return find_row([&](const OutcomeRow& row) { return row.binary == status; });
}

Code ucr_code(ucrp::RStatus status) {
  return find_row([&](const OutcomeRow& row) { return row.ucr == status; });
}

Errc caller_errc(Op op, Code code) {
  const Errc errc = outcome_row(code).errc;
  return errc == Errc::ok && code != success(op) ? Errc::protocol_error : errc;
}

ucrp::ResponseHeader ucr_reply_header(const Outcome& out, std::uint64_t req_id) {
  ucrp::ResponseHeader header{
      .status = outcome_row(out.code).ucr, .number = out.number, .req_id = req_id};
  if (out.item != nullptr) {
    header.flags = out.item->flags;
    header.cas = out.item->cas;
  }
  return header;
}

Outcome execute(ItemStore& store, sim::Time now, const Command& cmd) {
  store.set_clock(cache_clock(now));
  switch (cmd.op) {
    case Op::get:
    case Op::gets:
      if (ItemHeader* item = store.get_pinned(cmd.key)) return {.code = Code::value, .item = item};
      return {.code = Code::not_found};
    case Op::set:
    case Op::add:
    case Op::replace:
    case Op::append:
    case Op::prepend:
    case Op::cas: {
      if (cmd.prepared != nullptr && cmd.op == Op::set) {
        // The value already sits in its slab chunk: just link it.
        store.commit_item(cmd.prepared);
        return {.code = Code::stored, .cas = cmd.prepared->cas};
      }
      const std::span<const std::byte> value =
          cmd.prepared != nullptr ? cmd.prepared->value() : cmd.value;
      auto stored = store.store(set_mode(cmd.op), cmd.key, value, cmd.flags, cmd.exptime, cmd.cas);
      if (cmd.prepared != nullptr) store.abandon_item(cmd.prepared);
      if (!stored.ok()) return {.code = store_code(stored.error())};
      return {.code = Code::stored, .cas = (*stored)->cas};
    }
    case Op::del:
      return {.code = store.del(cmd.key) ? Code::deleted : Code::not_found};
    case Op::incr:
    case Op::decr: {
      auto result = store.arith(cmd.key, cmd.delta, cmd.op == Op::decr);
      if (result.ok()) return {.code = Code::number, .number = *result};
      return {.code = result.error() == Errc::not_found ? Code::not_found : Code::non_numeric};
    }
    case Op::touch:
      return {.code = store.touch(cmd.key, cmd.exptime) ? Code::touched : Code::not_found};
    case Op::version:
      return {.code = Code::ok};
    case Op::flush_all:
    case Op::mget:
      break;
  }
  return {.code = Code::unsupported};
}

bool pin_mget(ItemStore& store, sim::Time now, std::span<const std::byte> key_block,
              std::size_t max_keys, std::size_t value_budget, std::vector<ItemHeader*>& items) {
  store.set_clock(cache_clock(now));
  ucrp::MgetKeyReader reader{key_block.data(), key_block.size()};
  std::string_view key;
  std::size_t value_bytes = 0;
  while (items.size() < max_keys && reader.next(key)) {
    ItemHeader* item = store.get_pinned(key);
    if (item != nullptr) {
      value_bytes += item->value_len;
      if (value_bytes > value_budget) {
        store.release(item);
        return false;
      }
    }
    // rmclint:allow(zeroalloc): caller-owned scratch; capacity reaches its high-water mark at warmup
    items.push_back(item);
  }
  return true;
}

std::size_t encode_mget_chunk(std::byte* out, std::uint64_t req_id, std::uint32_t start,
                              std::span<ItemHeader* const> items, std::uint32_t total_chunks,
                              std::uint32_t total_keys) {
  const auto count = static_cast<std::uint32_t>(items.size());
  codec::encode(ucrp::ResponseHeader{.status = ucrp::RStatus::value, .req_id = req_id}, out);
  codec::encode(ucrp::MgetChunkHeader{start, count, total_chunks, total_keys},
                out + ucrp::ResponseHeader::kSize);
  std::size_t o = ucrp::ResponseHeader::kSize + ucrp::MgetChunkHeader::kSize;
  for (const ItemHeader* item : items) {
    ucrp::MgetRecord rec;
    if (item != nullptr) {
      rec.status = ucrp::RStatus::value;
      rec.flags = item->flags;
      rec.cas = item->cas;
      rec.value_len = item->value_len;
    }
    codec::encode(rec, out + o);
    o += ucrp::MgetRecord::kSize;
  }
  return o;
}

std::size_t copy_mget_values(std::span<ItemHeader* const> items, std::byte* out) {
  std::size_t o = 0;
  for (const ItemHeader* item : items) {
    if (item == nullptr) continue;
    std::memcpy(out + o, item->value_data(), item->value_len);
    o += item->value_len;
  }
  return o;
}

}  // namespace rmc::mc
