// rmclint:hotpath — the one store executor behind every wire
#include "memcached/command.hpp"

#include "memcached/store.hpp"
#include "memcached/ucr_proto.hpp"

namespace rmc::mc {

namespace {

constexpr OutcomeRow kOutcomeRows[] = {
#define RMC_MC_OUTCOME_ROW(code, text, binary, ucr, message) \
  {proto::Response::Type::text, message, bproto::BStatus::binary, ucrp::RStatus::ucr},
    RMC_MC_OUTCOMES(RMC_MC_OUTCOME_ROW)
#undef RMC_MC_OUTCOME_ROW
};

Code store_error(Errc e) {
  switch (e) {
    case Errc::not_stored: return Code::not_stored;
    case Errc::exists: return Code::exists;
    case Errc::not_found: return Code::not_found;
    case Errc::too_large: return Code::too_large;
    case Errc::invalid_argument: return Code::bad_format;
    default: return Code::out_of_memory;
  }
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
      if (!stored.ok()) return {.code = store_error(stored.error())};
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

}  // namespace rmc::mc
