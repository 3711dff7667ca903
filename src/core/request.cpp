#include "sessmpi/request.hpp"

#include <algorithm>

#include "detail/state.hpp"

namespace sessmpi {

Status Request::wait() {
  if (!impl_) {
    return Status{};
  }
  auto impl = impl_;
  impl->ps->progress_until([&] { return impl->done(); });
  impl_.reset();  // MPI_Wait sets the request to MPI_REQUEST_NULL
  return impl->status;
}

bool Request::test() {
  if (!impl_) {
    return true;
  }
  if (!impl_->done()) {
    impl_->ps->progress_pass();
  }
  if (impl_->done()) {
    impl_.reset();
    return true;
  }
  return false;
}

bool Request::completed() const noexcept {
  return impl_ == nullptr || impl_->done();
}

std::vector<Status> Request::wait_all(std::vector<Request>& reqs) {
  const auto live = std::find_if(reqs.begin(), reqs.end(),
                                 [](const Request& r) { return r.impl_; });
  if (live != reqs.end()) {
    live->impl_->ps->progress_until([&] {
      return std::all_of(reqs.begin(), reqs.end(),
                         [](const Request& r) { return r.completed(); });
    });
  }
  std::vector<Status> out;
  out.reserve(reqs.size());
  for (auto& r : reqs) {
    out.push_back(r.impl_ ? r.impl_->status : Status{});
    r.impl_.reset();
  }
  return out;
}

int Request::wait_any(std::vector<Request>& reqs, Status* status) {
  const auto live = std::find_if(reqs.begin(), reqs.end(),
                                 [](const Request& r) { return r.impl_; });
  if (live == reqs.end()) {
    return -1;
  }
  auto done = reqs.end();
  live->impl_->ps->progress_until([&] {
    done = std::find_if(reqs.begin(), reqs.end(), [](const Request& r) {
      return r.impl_ && r.impl_->done();
    });
    return done != reqs.end();
  });
  if (status != nullptr) {
    *status = done->impl_->status;
  }
  done->impl_.reset();
  return static_cast<int>(done - reqs.begin());
}

bool Request::test_all(std::vector<Request>& reqs) {
  const auto all_done = [&] {
    return std::all_of(reqs.begin(), reqs.end(),
                       [](const Request& r) { return r.completed(); });
  };
  if (!all_done()) {
    std::find_if(reqs.begin(), reqs.end(), [](const Request& r) {
      return !r.completed();
    })->impl_->ps->progress_pass();
    if (!all_done()) {
      return false;
    }
  }
  for (auto& r : reqs) {
    r.impl_.reset();
  }
  return true;
}

}  // namespace sessmpi
