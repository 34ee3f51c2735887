#pragma once
// Mail substrate: the petsc-users mailing list, subscriber mailboxes with
// unread flags (the Gmail account of §IV), and email text cleanup (quote
// stripping, URL-defense reversal).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.h"

namespace pkb::bots {

/// One email.
struct Email {
  std::uint64_t id = 0;
  std::string from;
  std::string to;       ///< list address
  std::string subject;  ///< thread key ("Re: " prefixes are normalized away)
  std::string body;
  std::vector<std::string> attachments;
  double timestamp = 0.0;
  bool read = false;  ///< per-mailbox flag (set on the mailbox copy)
};

/// A subscriber's mailbox.
class Mailbox {
 public:
  explicit Mailbox(std::string address) : address_(std::move(address)) {}

  [[nodiscard]] const std::string& address() const { return address_; }

  /// Deliver a copy (arrives unread).
  void deliver(Email email);

  /// All messages, oldest first.
  [[nodiscard]] const std::vector<Email>& all() const { return inbox_; }

  /// Unread messages, oldest first.
  [[nodiscard]] std::vector<const Email*> unread() const;

  /// Mark one message read; false when the id is unknown.
  bool mark_read(std::uint64_t id);

 private:
  std::string address_;
  std::vector<Email> inbox_;
};

/// The mailing list: posts fan out to every subscriber's mailbox and into
/// the public archive.
class MailingList {
 public:
  MailingList(std::string address, pkb::util::SimClock* clock);

  [[nodiscard]] const std::string& address() const { return address_; }

  /// Subscribe a mailbox (held by pointer; caller owns it).
  void subscribe(Mailbox* mailbox);

  /// Post to the list; the email is stamped, archived, and delivered.
  /// Returns the assigned id.
  std::uint64_t post(std::string_view from, std::string_view subject,
                     std::string_view body,
                     std::vector<std::string> attachments = {});

  /// Public archive, oldest first (petsc-users has 20 years of these).
  [[nodiscard]] const std::vector<Email>& archive() const { return archive_; }

 private:
  std::string address_;
  pkb::util::SimClock* clock_;
  std::vector<Mailbox*> subscribers_;
  std::vector<Email> archive_;
  std::uint64_t next_id_ = 1;
};

/// Normalize a subject to its thread key: strips any number of leading
/// "Re:" / "RE:" / "Fwd:" markers and trims.
[[nodiscard]] std::string thread_key(std::string_view subject);

/// Remove quoted reply lines ("> ..." and "On ... wrote:" headers) — the
/// paper: "We lightly parse email bodies to remove quotes commonly seen in
/// email replies."
[[nodiscard]] std::string strip_quoted_lines(std::string_view body);

/// Revert url-defense mangled links:
/// "https://urldefense.us/v3/__<real>__;!!token$" -> "<real>".
[[nodiscard]] std::string revert_url_defense(std::string_view body);

}  // namespace pkb::bots
