#include "serve/session_manager.h"

namespace privsan {
namespace serve {

Result<std::shared_ptr<Tenant>> SessionManager::Create(
    const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("tenant name must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = tenants_.emplace(name, std::make_shared<Tenant>(name));
  if (!inserted) {
    return Status::FailedPrecondition("tenant already exists: " + name);
  }
  return it->second;
}

Result<std::shared_ptr<Tenant>> SessionManager::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    return Status::NotFound("no such tenant: " + name);
  }
  return it->second;
}

Status SessionManager::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tenants_.erase(name) == 0) {
    return Status::NotFound("no such tenant: " + name);
  }
  return Status::OK();
}

std::vector<std::string> SessionManager::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  return names;  // std::map iterates sorted
}

std::vector<std::shared_ptr<Tenant>> SessionManager::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<Tenant>> all;
  all.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) all.push_back(tenant);
  return all;
}

size_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

}  // namespace serve
}  // namespace privsan
