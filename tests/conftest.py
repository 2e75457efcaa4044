from dmjoint.predict import TestSet

# dataclass named Test* — keep pytest from trying to collect it
TestSet.__test__ = False
