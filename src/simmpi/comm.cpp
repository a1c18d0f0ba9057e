#include "simmpi/comm.hpp"

#include "simmpi/engine.hpp"

namespace simmpi {

Locality Comm::locality_of(int peer) const {
  return eng_->machine().classify(global(rank_), global(peer));
}

Request Request::send(const Comm& comm, std::span<const std::byte> buf,
                      int dst, int tag) {
  if (dst < 0 || dst >= comm.size())
    throw SimError("Request::send: destination out of range");
  Request r;
  r.comm_ = comm;
  r.sbuf_ = buf;
  r.peer_ = dst;
  r.tag_ = tag;
  r.is_send_ = true;
  return r;
}

Request Request::recv(const Comm& comm, std::span<std::byte> buf, int src,
                      int tag) {
  if (src < 0 || src >= comm.size())
    throw SimError("Request::recv: source out of range");
  Request r;
  r.comm_ = comm;
  r.rbuf_ = buf;
  r.peer_ = src;
  r.tag_ = tag;
  r.is_send_ = false;
  return r;
}

Request Request::send_in_place(const Comm& comm, std::size_t bytes, int dst,
                               int tag) {
  Request r = send(comm, {}, dst, tag);
  r.in_place_ = true;
  r.bytes_ = bytes;
  return r;
}

Request Request::recv_in_place(const Comm& comm, std::size_t bytes, int src,
                               int tag) {
  Request r = recv(comm, {}, src, tag);
  r.in_place_ = true;
  r.bytes_ = bytes;
  return r;
}

void Request::arm() {
  if (started_) throw SimError("Request::start: request already active");
  if (!comm_.valid()) throw SimError("Request::start: invalid request");
  started_ = true;
}

void Request::start(Context& ctx) {
  if (is_send_ && in_place_)
    throw SimError("Request::start: in-place sends start with start_in_place");
  arm();
  if (is_send_) {
    ctx.engine().post_send(comm_, comm_.rank(), peer_, tag_, sbuf_, control_);
  }
}

std::span<std::byte> Request::start_in_place(Context& ctx) {
  if (!is_send_ || !in_place_)
    throw SimError("Request::start_in_place: not an in-place send request");
  arm();
  return ctx.engine().post_send_in_place(comm_, comm_.rank(), peer_, tag_,
                                         bytes_, control_);
}

ChannelKey Request::key() const {
  const int me = comm_.global(comm_.rank());
  const int other = comm_.global(peer_);
  if (is_send_) return ChannelKey{comm_.id(), me, other, tag_};
  return ChannelKey{comm_.id(), other, me, tag_};
}

}  // namespace simmpi
