#include "proxy/log_record.h"

namespace syrwatch::proxy {

std::string_view to_string(TrafficClass c) noexcept {
  switch (c) {
    case TrafficClass::kAllowed: return "allowed";
    case TrafficClass::kCensored: return "censored";
    case TrafficClass::kError: return "error";
    case TrafficClass::kProxied: return "proxied";
  }
  return "allowed";
}

TrafficClass classify(FilterResult result, ExceptionId exception) noexcept {
  if (result == FilterResult::kProxied) return TrafficClass::kProxied;
  return classify_by_exception(result, exception);
}

TrafficClass classify(const LogRecord& record) noexcept {
  return classify(record.filter_result, record.exception);
}

TrafficClass classify_by_exception(FilterResult result,
                                   ExceptionId exception) noexcept {
  (void)result;
  if (is_policy_exception(exception)) return TrafficClass::kCensored;
  if (is_error_exception(exception)) return TrafficClass::kError;
  return TrafficClass::kAllowed;
}

}  // namespace syrwatch::proxy
