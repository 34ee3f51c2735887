#include "bots/mail.h"

#include <stdexcept>

#include "util/strings.h"

namespace pkb::bots {

using pkb::util::split_lines;
using pkb::util::starts_with;
using pkb::util::trim;

void Mailbox::deliver(Email email) {
  email.read = false;
  inbox_.push_back(std::move(email));
}

std::vector<const Email*> Mailbox::unread() const {
  std::vector<const Email*> out;
  for (const Email& email : inbox_) {
    if (!email.read) out.push_back(&email);
  }
  return out;
}

bool Mailbox::mark_read(std::uint64_t id) {
  for (Email& email : inbox_) {
    if (email.id == id) {
      email.read = true;
      return true;
    }
  }
  return false;
}

MailingList::MailingList(std::string address, pkb::util::SimClock* clock)
    : address_(std::move(address)), clock_(clock) {
  if (clock_ == nullptr) {
    throw std::invalid_argument("MailingList: clock must not be null");
  }
}

void MailingList::subscribe(Mailbox* mailbox) {
  if (mailbox == nullptr) {
    throw std::invalid_argument("MailingList: null mailbox");
  }
  subscribers_.push_back(mailbox);
}

std::uint64_t MailingList::post(std::string_view from,
                                std::string_view subject,
                                std::string_view body,
                                std::vector<std::string> attachments) {
  Email email;
  email.id = next_id_++;
  email.from = std::string(from);
  email.to = address_;
  email.subject = std::string(subject);
  email.body = std::string(body);
  email.attachments = std::move(attachments);
  email.timestamp = clock_->now();
  archive_.push_back(email);
  for (Mailbox* mailbox : subscribers_) {
    mailbox->deliver(email);
  }
  return email.id;
}

std::string thread_key(std::string_view subject) {
  std::string_view s = trim(subject);
  while (true) {
    bool stripped = false;
    for (std::string_view prefix : {"Re:", "RE:", "re:", "Fwd:", "FWD:",
                                    "fwd:", "Fw:"}) {
      if (starts_with(s, prefix)) {
        s = trim(s.substr(prefix.size()));
        stripped = true;
      }
    }
    if (!stripped) break;
  }
  return std::string(s);
}

std::string strip_quoted_lines(std::string_view body) {
  std::string out;
  for (std::string_view line : split_lines(body)) {
    const std::string_view t = trim(line);
    if (starts_with(t, ">")) continue;
    // "On <date>, <someone> wrote:" reply headers.
    if (starts_with(t, "On ") && t.ends_with("wrote:")) continue;
    out.append(line);
    out += '\n';
  }
  // Trim trailing blank lines.
  while (out.size() >= 2 && out[out.size() - 1] == '\n' &&
         out[out.size() - 2] == '\n') {
    out.pop_back();
  }
  return out;
}

std::string revert_url_defense(std::string_view body) {
  std::string out;
  std::size_t i = 0;
  constexpr std::string_view kPrefix = "https://urldefense.us/v3/__";
  while (i < body.size()) {
    const std::size_t start = body.find(kPrefix, i);
    if (start == std::string_view::npos) {
      out.append(body.substr(i));
      break;
    }
    out.append(body.substr(i, start - i));
    const std::size_t inner = start + kPrefix.size();
    const std::size_t end = body.find("__;", inner);
    if (end == std::string_view::npos) {
      out.append(body.substr(start));
      break;
    }
    out.append(body.substr(inner, end - inner));
    // Skip past the token: "__;<base64ish>$" — ends at the first '$'.
    std::size_t after = body.find('$', end);
    i = after == std::string_view::npos ? body.size() : after + 1;
  }
  return out;
}

}  // namespace pkb::bots
