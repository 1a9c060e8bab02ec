#include "gpusim/gpusim.h"

#include <cstdlib>
#include <cstring>

namespace gpusim {

Device& Device::Instance() {
  static Device* device = new Device();
  return *device;
}

Device::Device(int threads)
    : pool_(certkit::support::ThreadPool::ResolveJobs(threads)) {}

Device::~Device() = default;

void* Device::Malloc(std::size_t bytes) {
  CERTKIT_CHECK(bytes > 0);
  void* p = std::malloc(bytes);
  CERTKIT_CHECK_MSG(p != nullptr, "device allocation of " << bytes
                                                          << " bytes failed");
  std::lock_guard<std::mutex> lock(mem_mu_);
  allocations_[p] = bytes;
  allocated_bytes_ += bytes;
  return p;
}

void Device::Free(void* ptr) {
  if (ptr == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mem_mu_);
    auto it = allocations_.find(ptr);
    CERTKIT_CHECK_MSG(it != allocations_.end(),
                      "Free of pointer not allocated by this device");
    allocated_bytes_ -= it->second;
    allocations_.erase(it);
  }
  std::free(ptr);
}

void Device::MemcpyHostToDevice(void* dst, const void* src,
                                std::size_t bytes) {
  std::memcpy(dst, src, bytes);
}

void Device::MemcpyDeviceToHost(void* dst, const void* src,
                                std::size_t bytes) {
  std::memcpy(dst, src, bytes);
}

std::size_t Device::allocated_bytes() const {
  std::lock_guard<std::mutex> lock(mem_mu_);
  return allocated_bytes_;
}

void Device::set_sm_count(unsigned sms) {
  CERTKIT_CHECK(sms >= 1);
  std::lock_guard<std::mutex> lock(time_mu_);
  sm_count_ = sms;
}

unsigned Device::sm_count() const {
  std::lock_guard<std::mutex> lock(time_mu_);
  return sm_count_;
}

void Device::ResetTimers() {
  std::lock_guard<std::mutex> lock(time_mu_);
  simulated_seconds_ = 0.0;
  wall_seconds_ = 0.0;
  launch_count_ = 0;
  blocks_launched_ = 0;
}

double Device::simulated_seconds() const {
  std::lock_guard<std::mutex> lock(time_mu_);
  return simulated_seconds_;
}

double Device::wall_seconds() const {
  std::lock_guard<std::mutex> lock(time_mu_);
  return wall_seconds_;
}

void Device::RecordLaunch(double wall_seconds, std::uint64_t blocks) {
  std::lock_guard<std::mutex> lock(time_mu_);
  wall_seconds_ += wall_seconds;
  const double occupancy = static_cast<double>(
      blocks < sm_count_ ? blocks : sm_count_);
  simulated_seconds_ += wall_seconds / occupancy;
  ++launch_count_;
  blocks_launched_ += blocks;
}

std::uint64_t Device::launch_count() const {
  std::lock_guard<std::mutex> lock(time_mu_);
  return launch_count_;
}

std::uint64_t Device::blocks_launched() const {
  std::lock_guard<std::mutex> lock(time_mu_);
  return blocks_launched_;
}

std::size_t Device::allocation_count() const {
  std::lock_guard<std::mutex> lock(mem_mu_);
  return allocations_.size();
}

}  // namespace gpusim
